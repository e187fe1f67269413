#!/usr/bin/env python3
"""Benchmark of the qswitch package: one client, tasks back to back, one BLAS thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bound --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each task
twice, untraced and traced, and prints the per-layer metrics.
``--workload all`` runs every workload in turn, each in its own process.
Human-readable metrics go to standard error; standard output ends with one
provenance line and then the result line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

import layers
import tasks
from spans import Tracer

# single-threaded BLAS must be chosen before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 24
SETUP_CODE = (
    "import qswitch.cli\n"
    "from qswitch import waveplates\n"
    "waveplates.load_pauli_table()\n"
    "waveplates.load_random_pairs_table()\n"
    "waveplates.table_gate_pairs()\n"
)
MODULES = ("cli", "comb", "experiment", "gates", "switch", "waveplates")


class BenchError(RuntimeError):
    pass


def load_package() -> types.SimpleNamespace:
    """Import qswitch from ./src of the checkout, never from anywhere else."""
    if not (SRC / "qswitch" / "__init__.py").is_file():
        raise BenchError(f"no qswitch sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("qswitch")
    if Path(package.__file__).resolve().parent != (SRC / "qswitch").resolve():
        raise BenchError(f"imported qswitch from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"qswitch.{m}") for m in MODULES}
    )


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing qswitch.cli and loading the tables.

    No timeout: with one, subprocess polls for the exit every 50 ms and the
    measured time is rounded up to that step.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


_REF_RNG = np.random.default_rng(0)
REF_MATS = [np.linalg.qr(_REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4)))[0]
            for _ in range(8)]
REF_STEPS = 300


def reference_step_s() -> float:
    """Seconds per step of a fixed pure-numpy loop that does not touch qswitch.

    A step is a few 4x4 complex products and one 4x4 eigensolve, the same mix
    of interpreter and small-array work as the switch, the gates and the
    experiment, so a change in the host's speed slows it as it slows them.
    """
    start = perf_counter()
    for k in range(REF_STEPS):
        a, b = REF_MATS[k % 8], REF_MATS[(k + 3) % 8]
        c = a @ b - b @ a
        np.linalg.eigvalsh(c.conj().T @ c)
    return (perf_counter() - start) / REF_STEPS


REF_BATCH = _REF_RNG.standard_normal((8192, 2, 2)) + 1j * _REF_RNG.standard_normal((8192, 2, 2))


def batch_reference_step_s() -> float:
    """Seconds for one step of fixed batched numpy work that does not touch qswitch.

    The step builds 8,192 16x16 matrices as Kronecker products of 2x2 ones and
    sums them and their squared moduli, as the Monte Carlo comb objective
    does on each batch.  Large arrays slow down differently from the
    small-matrix reference when the host is contended, so tasks made of this
    kind of work are divided by this step instead.
    """
    start = perf_counter()
    a = REF_BATCH @ np.conjugate(np.swapaxes(REF_BATCH, -2, -1))
    k = np.einsum("nab,ncd->nacbd", a, REF_BATCH).reshape(-1, 4, 4)
    k = np.einsum("nab,ncd->nacbd", k, k).reshape(-1, 16, 16)
    k.sum(axis=0)
    (np.abs(k) ** 2).sum(axis=0)
    return perf_counter() - start


def blas_info() -> dict:
    import ctypes

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    info.setdefault("threads", None)
    info["threads_env"] = os.environ["OPENBLAS_NUM_THREADS"]
    return info


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 of src/qswitch: names the code measured where there is no git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qswitch").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(qs, workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "qswitch": getattr(sys.modules["qswitch"], "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
    }


class Run:
    """Tasks back to back until --seconds is used, with periodic side measurements."""

    def __init__(self, workload, seed: int, seconds: float, setup_samples: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_samples = setup_samples
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.ref_step_s: list[float] = []  # one per task, measured beside it
        self.absent: set[str] = set()  # traced layers none of whose names exist

    def one_task(self, seed: int, tracer: Tracer | None = None, probe: bool = False):
        """Prepare, run (timed), gate and optionally probe the task with this seed.

        With a tracer, the public names are wrapped for this task only, so
        untraced tasks always run the package's own functions.
        A reference step is timed before the task, between the task and the
        gate, and after the probe.  The mean of the two around the task is the
        host's speed for the task, and the mean of the two around the gate and
        probe is its speed for the probed latencies, which always come from
        the small-matrix switch.  Tasks of batched work use the batched step.
        Returns (task seconds, verdict latencies, span summary, task step, probe step).
        """
        self.workload.prepare(seed)
        gc.collect()
        task_reference = batch_reference_step_s if self.workload.batched else reference_step_s
        ref_before = task_reference()
        summary = None
        if tracer is not None:
            tracer.reset()
            self.absent = tracer.install(layers.WRAPS)
        try:
            start = perf_counter()
            try:
                outcome, raised = self.workload.task(seed), None
            except Exception:  # a task that raises is a failed task; keep measuring
                outcome, raised = None, traceback.format_exc()
            elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                summary = tracer.summary()
        ref_after_task = task_reference()
        ref_between = ref_after_task if not self.workload.batched else reference_step_s()
        latencies: list[float] = []
        if outcome is None:
            problems = [f"task raised\n{raised}"]
        else:
            problems = self.workload.check(outcome)
            if probe:
                latencies, wrong = self.workload.probe(outcome)
                problems += wrong
        task_step = (ref_before + ref_after_task) / 2
        probe_step = (ref_between + reference_step_s()) / 2
        self.ref_step_s.append(task_step)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in problems[:5]]
        return elapsed, latencies, summary, task_step, probe_step

    def loop(self, cycle) -> None:
        """Call cycle(i) for task i until the time is used; set-up samples in between."""
        setup_due = [k * self.seconds / self.setup_samples for k in range(self.setup_samples)]
        cycles: list[float] = []
        start = perf_counter()
        i = 0
        while True:
            elapsed = perf_counter() - start
            if i > 0 and elapsed + statistics.median(cycles) > self.seconds:
                break
            while setup_due and setup_due[0] <= elapsed:
                setup_due.pop(0)
                self.setup_s.append(setup_seconds())
            begin = perf_counter()
            cycle(i)
            cycles.append(perf_counter() - begin)
            i += 1
        self.cycles = i
        for _ in setup_due:
            self.setup_s.append(setup_seconds())


def _quantile(values, q: float, scale: float = 1.0) -> float | None:
    """Quantile of all samples pooled, or None when a failing run left none."""
    pooled = np.concatenate([np.ravel(v) for v in values])
    return float(np.quantile(pooled, q)) * scale if pooled.size else None


def run_untraced(run: Run) -> tuple[dict, dict]:
    task_s: list[float] = []
    task_steps: list[float] = []
    latency_steps: list = []

    def cycle(i: int) -> None:
        elapsed, lat, _, task_step, probe_step = run.one_task(run.seed + i, probe=True)
        task_s.append(elapsed)
        task_steps.append(elapsed / task_step)
        # float32: small, because it counts in peak RSS
        latency_steps.append(np.asarray(lat, dtype=np.float32) / np.float32(probe_step))

    setup_seconds()  # untimed: the first fresh interpreter may still compile bytecode
    run.loop(cycle)
    # times in reference steps, not seconds: see "Steadiness" in perfbench/README.md
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "task_steps_p50": (statistics.median(task_steps), "refstep"),
        "verdict_steps_p50": (_quantile(latency_steps, 0.50), "refstep"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "tasks": len(task_s),
        "task_s": [round(t, 6) for t in task_s],
        "verdict_samples": sum(len(lat) for lat in latency_steps),
        "setup_s": [round(t, 6) for t in run.setup_s],
    }
    return metrics, detail


def layer_value(summary: dict, metric: layers.LayerMetric, absent: set[str]):
    """One traced task's value of a layer metric, or None when it cannot be measured."""
    if all(layer in absent for layer in metric.layers):
        return None
    total = 0.0
    for layer in metric.layers:
        value = summary.get(layer, {}).get(metric.field, 0)
        if value is None:
            return None
        total += value
    return total


def run_traced(run: Run, tracer: Tracer) -> tuple[dict, dict]:
    plain_s: list[float] = []
    latencies: list = []
    traced_s: list[float] = []
    summaries: list[dict] = []

    def cycle(i: int) -> None:
        seed = run.seed + i
        # alternate which of the pair goes first, so that neither always runs warm
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                elapsed, _, summary, _, _ = run.one_task(seed, tracer)
                traced_s.append(elapsed)
                summaries.append(summary)
            else:
                elapsed, lat, _, _, _ = run.one_task(seed, probe=True)
                plain_s.append(elapsed)
                latencies.append(np.asarray(lat, dtype=np.float32))

    run.setup_samples = 0
    run.loop(cycle)
    absent = run.absent
    metrics = {}
    for metric in layers.PER_LAYER:
        values = [layer_value(s, metric, absent) for s in summaries]
        if any(v is None for v in values):
            continue  # absent: a name it depends on is gone, or its count is unreadable
        # counts of the first traced task (seed = --seed) repeat exactly for a seed
        value = int(values[0]) if metric.unit == "count" else statistics.median(values)
        metrics[metric.name] = (value, metric.unit)
    metrics["task_s_p50"] = (statistics.median(plain_s), "s")
    metrics["verdict_us_p50"] = (_quantile(latencies, 0.50, 1e6), "us")
    metrics["verdict_us_p99"] = (_quantile(latencies, 0.99, 1e6), "us")
    metrics["trace.task_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    metrics["fail_frac"] = (run.failed / run.attempted, "ratio")
    detail = {
        "tasks": len(traced_s),
        "traced_task_s": [round(t, 6) for t in traced_s],
        "untraced_task_s": [round(t, 6) for t in plain_s],
        "absent_layers": sorted(absent),
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 setup_samples: int = SETUP_SAMPLES, workload_factory=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, provenance line)."""
    qs = load_package()
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        factory = workload_factory or tasks.WORKLOADS[name]
        workload = factory(qs, out_dir, tracer.span if tracer else None)
        run = Run(workload, seed, seconds, setup_samples)
        if tracer is not None:
            metrics, detail = run_traced(run, tracer)
        else:
            metrics, detail = run_untraced(run)
    info = provenance(qs, name, seed, trace)
    info.update(detail)
    info["seeds"] = [seed, seed + run.cycles - 1]
    info["ref_step_us"] = [round(t * 1e6, 3) for t in run.ref_step_s]
    info["fail_frac"] = run.failed / run.attempted
    info["problems"] = run.problems[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }
    return result, info


def print_listing(result: dict, info: dict) -> None:
    out = sys.stderr
    print(f"# {info['workload']}  seed {info['seed']}  trace {info['trace']}  "
          f"tasks {info['tasks']}  attempted {result['attempted']}  failed {result['failed']}",
          file=out)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}", file=out)
    if "fail_frac" not in result["metrics"]:
        print(f"{'fail_frac':36s} {info['fail_frac']:>16.6g} ratio", file=out)
    steps = info["ref_step_us"]
    print(f"{'ref_step_us (first, middle, last)':36s} "
          f"{[steps[0], steps[len(steps) // 2], steps[-1]]}", file=out)
    for problem in info["problems"]:
        print(f"problem: {problem}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*tasks.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in tasks.WORKLOADS
        ]
        return max(codes)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_listing(result, info)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
