"""The three workloads: one task each, its correctness gate and its verdict probe.

A workload is built once per run from the imported package.  ``task(seed)``
does the timed work and returns what the gate needs; ``check(outcome)``
returns a list of problems, empty when the outputs are correct.  Task *i* of
a run uses seed + *i*.

``probe(outcome)`` times ``exit_probabilities`` once per labelled pair and is
run outside the task's time.  On ``discriminate`` the task already times every
call, so the probe only hands those latencies on; ``bound`` and ``suites``
call the switch rarely or never, so their probe runs their own labelled pairs
(the 100 table pairs 20 times, the 100 explicit pairs twice) to give the
verdict latency of the switch in that workload's process.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import perf_counter

P_SUCC_TARGET, P_SUCC_TOL = 0.9288, 0.003
TABLE_TARGET, TABLE_TOL = 0.939, 0.005
RESIDUAL_TOL = 1e-6
SWITCH_MIN = 0.999
PROMISE_TOL = 1e-9
SUITE_BANDS = {"pauli": (0.95, 0.995), "random100": (0.95, 0.995), "statesweep": (0.94, 0.995)}
PAIRS_BAND = (0.95, 0.995)
N_COMMUTING = N_ANTICOMMUTING = 1000
N_EXPLICIT = 50


def _cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _cli_json(code: int, out: str, what: str, problems: list[str]) -> dict | None:
    if code != 0:
        problems.append(f"{what}: exit code {code}")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        problems.append(f"{what}: output is not JSON")
        return None


def _correct_port(outcome, label, verdict_cls) -> float:
    return outcome.p0 if label is verdict_cls.COMMUTE else outcome.p1


def _time_verdicts(qs, pairs, passes: int = 1) -> tuple[list[float], list]:
    """Per-call latency of exit_probabilities and its outcome, for every pair in every pass."""
    exit_probabilities = qs.switch.exit_probabilities
    latencies, outcomes = [], []
    for _ in range(passes):
        for pair in pairs:
            start = perf_counter()
            outcome = exit_probabilities(pair.u1, pair.u2)
            latencies.append(perf_counter() - start)
            outcomes.append(outcome)
    return latencies, outcomes


def _probe(qs, pairs, passes: int) -> tuple[list[float], list[str]]:
    """Verdict latencies over the pairs, and the pairs whose verdict is wrong."""
    latencies, outcomes = _time_verdicts(qs, pairs, passes)
    wrong = [
        f"probe pair {k % len(pairs)}: verdict {outcome.verdict.value} for {pair.label.value}"
        for k, (pair, outcome) in enumerate(zip(list(pairs) * passes, outcomes))
        if outcome.verdict is not pair.label
    ]
    return latencies, wrong


class Workload:
    name = ""
    batched = False  # task time is mostly numpy work on large batches of arrays

    def __init__(self, qs, out_dir: str, span=None) -> None:
        self.qs = qs
        self.out_dir = out_dir
        self.span = span or (lambda layer: contextlib.nullcontext())

    def prepare(self, seed: int) -> None:
        """Make the inputs of the task with this seed, outside its time."""


class Bound(Workload):
    """qswitch bound at its default sample count, gated on the paper's numbers."""

    name = "bound"
    batched = True  # the Monte Carlo objective runs on batches of 8,192 samples

    def __init__(self, qs, out_dir: str, span=None) -> None:
        super().__init__(qs, out_dir, span)
        self.probe_pairs = qs.waveplates.table_gate_pairs()

    def task(self, seed: int):
        with self.span("cli.bound"):
            return _cli(self.qs.cli.main, ["bound", "--seed", str(seed), "--json", "--out", self.out_dir])

    def check(self, outcome) -> list[str]:
        problems: list[str] = []
        payload = _cli_json(*outcome, "bound", problems)
        if payload is None:
            return problems
        try:
            p = payload["p_succ"]
            if not abs(p - P_SUCC_TARGET) <= P_SUCC_TOL:
                problems.append(f"p_succ {p} outside {P_SUCC_TARGET} +/- {P_SUCC_TOL}")
            for key, value in payload["residuals"].items():
                if key == "min_eigenvalue":
                    if not value >= -RESIDUAL_TOL:
                        problems.append(f"min eigenvalue {value} < -{RESIDUAL_TOL}")
                elif not value <= RESIDUAL_TOL:
                    problems.append(f"residual {key} = {value} > {RESIDUAL_TOL}")
            table = payload["table_pairs_success"]
            if not abs(table - TABLE_TARGET) <= TABLE_TOL:
                problems.append(f"table-pair success {table} outside {TABLE_TARGET} +/- {TABLE_TOL}")
            switch = payload["switch_success_same_pairs"]
            if not switch >= SWITCH_MIN:
                problems.append(f"switch success {switch} < {SWITCH_MIN}")
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"bound output lacks a field: {exc!r}")
        return problems

    def probe(self, outcome) -> tuple[list[float], list[str]]:
        return _probe(self.qs, self.probe_pairs, passes=20)


class Discriminate(Workload):
    """The switch protocol on 1000 + 1000 sampled promise pairs, one call per pair."""

    name = "discriminate"

    def task(self, seed: int):
        qs = self.qs
        pairs = qs.gates.sample_pairs(qs.gates.RandomSource(seed), N_COMMUTING, N_ANTICOMMUTING)
        latencies, outcomes = _time_verdicts(qs, pairs)
        return pairs, outcomes, latencies

    def check(self, outcome) -> list[str]:
        pairs, outcomes, _ = outcome
        verdict = self.qs.switch.Verdict
        problems = []
        if len(pairs) != N_COMMUTING + N_ANTICOMMUTING:
            problems.append(f"{len(pairs)} pairs sampled")
        for k, (pair, result) in enumerate(zip(pairs, outcomes)):
            if result.verdict is not pair.label:
                problems.append(f"pair {k}: verdict {result.verdict.value} for {pair.label.value}")
            elif not abs(_correct_port(result, pair.label, verdict) - 1.0) <= PROMISE_TOL:
                problems.append(f"pair {k}: p_correct {_correct_port(result, pair.label, verdict)!r}")
        return problems

    def probe(self, outcome) -> tuple[list[float], list[str]]:
        return outcome[2], []


class Suites(Workload):
    """The three packaged noisy suites through the CLI, then one explicit-pair suite."""

    name = "suites"
    pairs = None

    def prepare(self, seed: int) -> None:
        gates = self.qs.gates
        self.pairs = gates.sample_pairs(gates.RandomSource(seed), N_EXPLICIT, N_EXPLICIT)

    def task(self, seed: int):
        qs = self.qs
        outputs = {}
        for which in SUITE_BANDS:
            with self.span("cli.suite"):
                outputs[which] = _cli(
                    qs.cli.main,
                    ["suite", which, "--seed", str(seed), "--out", self.out_dir, "--json"],
                )
        with self.span("experiment.random_pairs"):
            report = qs.experiment.run_random_suite(
                qs.experiment.NoiseParams(), qs.gates.RandomSource(seed), pairs=self.pairs
            )
        return outputs, report

    def check(self, outcome) -> list[str]:
        outputs, report = outcome
        problems: list[str] = []
        for which, (lo, hi) in SUITE_BANDS.items():
            payload = _cli_json(*outputs[which], which, problems)
            if payload is None:
                continue
            mean = payload.get("mean_success")
            if not (isinstance(mean, (int, float)) and lo <= mean <= hi):
                problems.append(f"{which} mean success {mean!r} outside [{lo}, {hi}]")
        lo, hi = PAIRS_BAND
        if not lo <= report.mean_success <= hi:
            problems.append(f"explicit-pair mean success {report.mean_success} outside [{lo}, {hi}]")
        return problems

    def probe(self, outcome) -> tuple[list[float], list[str]]:
        return _probe(self.qs, self.pairs, passes=2)


WORKLOADS = {w.name: w for w in (Bound, Discriminate, Suites)}
