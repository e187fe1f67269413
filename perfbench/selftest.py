#!/usr/bin/env python3
"""Self-test of the benchmark, one task per workload; run from the checkout root.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark produces, that each workload reports every end-to-end metric
untraced and every per-layer metric traced, and that the correctness gate
counts an injected wrong answer, or a task that raises, as a failure.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import run  # first: it pins BLAS to one thread before numpy loads
import layers
import tasks

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def one_task(name: str, trace: int, factory=None) -> tuple[dict, dict]:
    # with no time to spend, the run stops after its first task
    return run.run_workload(name, seed=1, seconds=0, trace=trace, setup_samples=1,
                            workload_factory=factory)


class MislabelledPair(tasks.Discriminate):
    def task(self, seed):
        pairs, outcomes, latencies = super().task(seed)
        verdict = self.qs.switch.Verdict
        flipped = verdict.ANTICOMMUTE if pairs[0].label is verdict.COMMUTE else verdict.COMMUTE
        pairs[0] = dataclasses.replace(pairs[0], label=flipped)
        return pairs, outcomes, latencies


class RaisingTask(tasks.Discriminate):
    def task(self, seed):
        raise RuntimeError("injected")


class WrongBound(tasks.Bound):
    def task(self, seed):
        code, out = super().task(seed)
        payload = json.loads(out)
        payload["p_succ"] += 0.01
        return code, json.dumps(payload)


class WrongSuite(tasks.Suites):
    def task(self, seed):
        outputs, report = super().task(seed)
        code, out = outputs["pauli"]
        payload = json.loads(out)
        payload["mean_success"] = 0.5
        outputs["pauli"] = (code, json.dumps(payload))
        return outputs, report


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected_layer = {m.name: m.unit for m in layers.PER_LAYER}
    expected_layer.update({name: unit for name, unit, _ in layers.RUN_METRICS})
    expect([w["name"] for w in spec["workloads"]] == list(tasks.WORKLOADS),
           "BENCHMARK.json workloads are the benchmark's workloads")
    expect(per_layer == expected_layer, "BENCHMARK.json per-layer metrics match layers.py")
    run.load_package()
    for dotted in layers.TASK_NAMES:
        module, _, attr = dotted.rpartition(".")
        expect(hasattr(importlib.import_module(module), attr), f"{dotted} exists")

    for name in tasks.WORKLOADS:
        result, info = one_task(name, trace=0)
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(got == end_to_end, f"{name}: every end-to-end metric, with its unit")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: every end-to-end metric is positive")
        expect(result["correct"] and result["attempted"] == 1 and result["failed"] == 0,
               f"{name}: the untraced task passes its gate {info['problems']}")

        result, info = one_task(name, trace=1)
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(got == per_layer, f"{name}: every per-layer metric, with its unit")
        expect(not info["absent_layers"], f"{name}: no layer is absent {info['absent_layers']}")
        expect(result["correct"] and result["attempted"] == 2,
               f"{name}: the untraced and traced tasks pass their gate {info['problems']}")
        if name == "bound":
            m = result["metrics"]
            share = m["comb.objective.s"]["value"] / m["trace.task_s"]["value"]
            expect(share >= 0.8, f"bound: comb.objective.s is {share:.1%} of the traced task")
            again, _ = one_task(name, trace=1)
            iterations = [r["metrics"]["comb.admm.iterations"]["value"] for r in (result, again)]
            expect(iterations[0] == iterations[1],
                   f"bound: comb.admm.iterations repeats for one seed {iterations}")

    for name, factory in (("discriminate", MislabelledPair), ("discriminate", RaisingTask),
                          ("bound", WrongBound), ("suites", WrongSuite)):
        result, info = one_task(name, trace=0, factory=factory)
        expect(not result["correct"] and result["failed"] == 1 == result["attempted"],
               f"{name}: the gate fails the injected {factory.__name__}")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
