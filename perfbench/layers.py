"""Which public qswitch names the benchmark traces, and what each layer metric means.

``WRAPS`` lists every public name the traced run replaces with a timing
wrapper, spelled as the module attribute its callers resolve at call time
(``qswitch.cli.objective_operator`` is the name ``cmd_bound`` calls, so that
is the one wrapped).  A name that no longer exists is skipped and the layer
metrics that depend only on it are reported as absent.

The workloads also open spans around their own calls to ``qswitch.cli.main``
(``cli.bound``, ``cli.suite``) and ``experiment.run_random_suite``
(``experiment.random_pairs``).  ``TASK_NAMES`` are the public names the
workloads, their gates and the set-up probe call directly.

``PER_LAYER`` is the metric table: the name printed in a traced result, its
unit, which span layers it is computed from, the field of those layers, and
the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


def _iterations(args, kwargs, result):
    return result.iterations


def _result_len(args, kwargs, result):
    return len(result)


def _pairs_arg(args, kwargs, result):
    return len(kwargs["pairs"] if "pairs" in kwargs else args[1])


class Wrap(NamedTuple):
    module: str
    attr: str
    layer: str
    count: str | None = None  # name of an extra per-call count, e.g. "iterations"
    counter: Callable | None = None


WRAPS = [
    Wrap("qswitch.cli", "objective_operator", "comb.objective"),
    Wrap("qswitch.cli", "optimize_fixed_order", "comb.admm", "iterations", _iterations),
    Wrap("qswitch.comb", "project_comb_affine", "comb.admm.affine"),
    Wrap("qswitch.comb", "comb_residuals", "comb.residuals"),
    Wrap("qswitch.cli", "evaluate_comb", "comb.evaluate", "pairs", _pairs_arg),
    Wrap("qswitch.comb", "probability_from_comb", "comb.probability"),
    Wrap("qswitch.comb", "haar_random_unitaries", "gates.haar_batch", "unitaries", _result_len),
    Wrap("qswitch.gates", "sample_pairs", "gates.sample_pairs", "pairs", _result_len),
    Wrap("qswitch.gates", "classify_pair", "gates.classify"),
    Wrap("qswitch.experiment", "classify_pair", "gates.classify"),
    Wrap("qswitch.cli", "classify_pair", "gates.classify"),
    Wrap("qswitch.switch", "exit_probabilities", "switch.exit"),
    Wrap("qswitch.cli", "exit_probabilities", "switch.exit"),
    Wrap("qswitch.experiment", "decompose", "waveplates.decompose"),
    Wrap("qswitch.cli", "decompose", "waveplates.decompose"),
    Wrap("qswitch.waveplates", "triple_to_unitary", "waveplates.triple_to_unitary"),
    Wrap("qswitch.experiment", "triple_to_unitary", "waveplates.triple_to_unitary"),
    Wrap("qswitch.cli", "triple_to_unitary", "waveplates.triple_to_unitary"),
    Wrap("qswitch.cli", "table_gate_pairs", "waveplates.table_pairs"),
    Wrap("qswitch.waveplates", "load_random_pairs_table", "waveplates.load_table"),
    Wrap("qswitch.experiment", "load_random_pairs_table", "waveplates.load_table"),
    Wrap("qswitch.experiment", "load_pauli_table", "waveplates.load_table"),
    Wrap("qswitch.cli", "run_pauli_suite", "experiment.pauli"),
    Wrap("qswitch.cli", "run_random_suite", "experiment.random100"),
    Wrap("qswitch.cli", "run_state_sweep", "experiment.statesweep"),
    Wrap("qswitch.experiment", "simulate_counts", "experiment.simulate_counts"),
]

TASK_NAMES = [
    "qswitch.cli.main",
    "qswitch.gates.RandomSource",
    "qswitch.gates.sample_pairs",
    "qswitch.switch.exit_probabilities",
    "qswitch.switch.Verdict",
    "qswitch.experiment.NoiseParams",
    "qswitch.experiment.run_random_suite",
    "qswitch.waveplates.load_pauli_table",
    "qswitch.waveplates.load_random_pairs_table",
    "qswitch.waveplates.table_gate_pairs",
]

SUITE_LAYERS = ("experiment.pauli", "experiment.random100", "experiment.statesweep",
                "experiment.random_pairs")


class LayerMetric(NamedTuple):
    name: str
    unit: str
    layers: tuple[str, ...]
    field: str  # "s", "calls", "self_s" or the name of a Wrap count
    moves: str


def _m(name, unit, layers, field, moves):
    if isinstance(layers, str):
        layers = (layers,)
    return LayerMetric(name, unit, layers, field, moves)


BOUND = "task_steps_p50 on bound"
PER_LAYER = [
    _m("comb.objective.s", "s", "comb.objective", "s", BOUND),
    _m("comb.objective.calls", "count", "comb.objective", "calls", BOUND),
    _m("comb.admm.s", "s", "comb.admm", "s", BOUND),
    _m("comb.admm.iterations", "count", "comb.admm", "iterations", BOUND),
    _m("comb.admm.affine.s", "s", "comb.admm.affine", "s", BOUND),
    _m("comb.admm.affine.calls", "count", "comb.admm.affine", "calls", BOUND),
    _m("comb.admm.self_s", "s", "comb.admm", "self_s", BOUND),
    _m("comb.residuals.s", "s", "comb.residuals", "s", BOUND),
    _m("comb.evaluate.s", "s", "comb.evaluate", "s", BOUND),
    _m("comb.evaluate.pairs", "count", "comb.evaluate", "pairs", BOUND),
    _m("comb.probability.s", "s", "comb.probability", "s", BOUND),
    _m("comb.probability.calls", "count", "comb.probability", "calls", BOUND),
    _m("gates.haar_batch.s", "s", "gates.haar_batch", "s",
       "task_steps_p50 and peak_rss_mb on bound"),
    _m("gates.haar_batch.unitaries", "count", "gates.haar_batch", "unitaries",
       "task_steps_p50 and peak_rss_mb on bound"),
    _m("gates.sample_pairs.s", "s", "gates.sample_pairs", "s", "task_steps_p50 on discriminate"),
    _m("gates.sample_pairs.pairs", "count", "gates.sample_pairs", "pairs",
       "task_steps_p50 on discriminate"),
    _m("gates.classify.s", "s", "gates.classify", "s",
       "task_steps_p50 on suites and bound; setup_s"),
    _m("gates.classify.calls", "count", "gates.classify", "calls",
       "task_steps_p50 on suites and bound; setup_s"),
    _m("switch.exit.s", "s", "switch.exit", "s",
       "verdict_steps_p50 and task_steps_p50 on discriminate; task_steps_p50 on bound"),
    _m("switch.exit.calls", "count", "switch.exit", "calls",
       "verdict_steps_p50 and task_steps_p50 on discriminate; task_steps_p50 on bound"),
    _m("waveplates.decompose.s", "s", "waveplates.decompose", "s", "task_steps_p50 on suites"),
    _m("waveplates.decompose.calls", "count", "waveplates.decompose", "calls",
       "task_steps_p50 on suites"),
    _m("waveplates.triple_to_unitary.s", "s", "waveplates.triple_to_unitary", "s",
       "task_steps_p50 on suites and bound"),
    _m("waveplates.triple_to_unitary.calls", "count", "waveplates.triple_to_unitary", "calls",
       "task_steps_p50 on suites and bound"),
    _m("waveplates.table_pairs.s", "s", "waveplates.table_pairs", "s",
       "task_steps_p50 on bound; setup_s"),
    _m("waveplates.load_table.s", "s", "waveplates.load_table", "s",
       "task_steps_p50 on suites and bound; setup_s"),
    _m("waveplates.load_table.calls", "count", "waveplates.load_table", "calls",
       "task_steps_p50 on suites and bound; setup_s"),
    _m("experiment.pauli.s", "s", "experiment.pauli", "s", "task_steps_p50 on suites"),
    _m("experiment.random100.s", "s", "experiment.random100", "s", "task_steps_p50 on suites"),
    _m("experiment.statesweep.s", "s", "experiment.statesweep", "s", "task_steps_p50 on suites"),
    _m("experiment.random_pairs.s", "s", "experiment.random_pairs", "s", "task_steps_p50 on suites"),
    _m("experiment.simulate_counts.s", "s", "experiment.simulate_counts", "s",
       "task_steps_p50 on suites"),
    _m("experiment.simulate_counts.calls", "count", "experiment.simulate_counts", "calls",
       "task_steps_p50 on suites"),
    _m("experiment.suite.self_s", "s", SUITE_LAYERS, "self_s", "task_steps_p50 on suites"),
    _m("cli.bound.self_s", "s", "cli.bound", "self_s", BOUND),
    _m("cli.suite.self_s", "s", "cli.suite", "self_s", "task_steps_p50 on suites"),
]

# computed by the traced run itself rather than from spans; the first three
# come from its untraced tasks and give in raw seconds what the bounded
# end-to-end metrics give in reference steps, plus the latency tail
RUN_METRICS = [
    ("task_s_p50", "s", "none; median untraced task time, unbounded"),
    ("verdict_us_p50", "us", "none; median exit_probabilities latency, unbounded"),
    ("verdict_us_p99", "us", "none; 99th-percentile exit_probabilities latency, unbounded"),
    ("trace.task_s", "s", "none; median traced task time, the base of the layer shares"),
    ("trace.overhead_s", "s", "none; median traced minus median untraced task time, a check on the trace"),
    ("fail_frac", "ratio", "none; tasks failing the correctness gate / tasks attempted"),
]
