"""Command-line front end: discriminate, suite, bound, compile, sample-pairs.

Gate specs accept named gates (I, X, Y, Z, H), eight comma-separated numbers
(re/im pairs, row-major), or waveplate triples written ``wp:q,h,q`` in
degrees.  State specs accept + - 0 1 H V, or four numbers (re/im pairs),
normalised.  Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .comb import evaluate_comb, objective_operator, optimize_fixed_order
from .experiment import (
    NoiseParams,
    run_pauli_suite,
    run_random_suite,
    run_state_sweep,
)
from .gates import RandomSource, classify_pair, pairs_to_csv, sample_pairs
from .linalg import ID2, PAULI_GATES, HAD, frobenius_distance_up_to_phase, require_unitary
from .switch import PLUS, Verdict, exit_probabilities
from .waveplates import decompose, table_gate_pairs, triple_to_unitary

NAMED_GATES = dict(PAULI_GATES, H=HAD)
NAMED_STATES = {"+": PLUS, "-": HAD[:, 1], "0": ID2[0], "1": ID2[1], "H": ID2[0], "V": ID2[1]}


class UsageError(ValueError):
    pass


def _numbers(text: str, count: int) -> np.ndarray:
    """The ``count`` comma-separated floats of ``text``, raising ValueError for any other text."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {len(parts)}")
    return np.array([float(p) for p in parts])


def parse_gate(spec: str) -> np.ndarray:
    spec = spec.strip()
    if spec in NAMED_GATES:
        return NAMED_GATES[spec].copy()
    try:
        if spec.startswith("wp:"):
            return triple_to_unitary(_numbers(spec[3:], 3))
        # the entries as re/im pairs, with no arithmetic; require_unitary rejects NaN, inf and overflow
        return require_unitary(_numbers(spec, 8).view(complex).reshape(2, 2))
    except ValueError as exc:
        raise UsageError(f"cannot parse gate spec {spec!r}: {exc}") from exc


def parse_state(spec: str) -> np.ndarray:
    spec = spec.strip()
    if spec in NAMED_STATES:
        return NAMED_STATES[spec].copy()
    try:
        vals = _numbers(spec, 4)
        scale = np.max(np.abs(vals))
        if not 0.0 < scale < np.inf:
            raise ValueError("entries must be finite and not all zero")
        psi = (vals / scale).view(complex)  # entries in [-1, 1], so the norm cannot overflow
        return psi / np.linalg.norm(psi)
    except ValueError as exc:
        raise UsageError(f"cannot parse state spec {spec!r}: {exc}") from exc


def nonnegative(text: str) -> int:
    """argparse type of ``--seed`` and the pair counts, which numpy takes only as nonnegative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_noise(path: str | None) -> NoiseParams:
    if path is None:
        return NoiseParams()
    try:
        with open(path) as fh:
            return NoiseParams(**json.load(fh))
    # RecursionError: JSON nested deeper than the decoder's recursion limit
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise UsageError(f"bad noise file {path!r}: {exc}") from exc


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_discriminate(args) -> int:
    u1, u2 = parse_gate(args.u1), parse_gate(args.u2)
    psi = parse_state(args.state)
    outcome = exit_probabilities(u1, u2, psi)
    promise = classify_pair(u1, u2)
    payload = {
        "p0": round(float(outcome.p0), 12),
        "p1": round(float(outcome.p1), 12),
        "verdict": outcome.verdict.value,
    }
    if promise is Verdict.NEITHER:
        payload["warning"] = "gates neither commute nor anti-commute; verdict unreliable"
    _emit(payload, args.json)
    return 0


def cmd_suite(args) -> int:
    noise = _load_noise(args.noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # fail on a bad path before the suite runs
    # looked up per call, so that wrappers of these module attributes take effect
    runners = {
        "pauli": run_pauli_suite,
        "random100": run_random_suite,
        "statesweep": run_state_sweep,
    }
    report = runners[args.which](noise, RandomSource(args.seed))
    csv_path = out / f"{args.which}_settings.csv"
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
    json_path = out / f"{args.which}_summary.json"
    json_path.write_text(report.to_json() + "\n")
    _emit(
        {
            "suite": args.which,
            "mean_success": round(report.mean_success, 6),
            "success_std": round(report.success_std, 6),
            "settings_csv": str(csv_path),
            "summary_json": str(json_path),
        },
        args.json,
    )
    return 0


def cmd_bound(args) -> int:
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)  # fail on a bad path before the solve
    result = optimize_fixed_order(objective_operator())
    pairs = table_gate_pairs()
    correct = evaluate_comb(result.comb, pairs)
    switch = exit_probabilities(pairs.u1, pairs.u2)
    ideal = np.where(pairs.port == 0, switch.p0, switch.p1)
    payload = {
        "p_succ": round(result.p_succ, 6),
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "lower": result.lower,
        "upper": result.upper,
        "gap": result.gap,
        "residuals": {k: float(v) for k, v in result.residuals.items()},
        "table_pairs_success": round(float(np.mean(correct)), 6),
        "switch_success_same_pairs": round(float(np.mean(ideal)), 6),
    }
    if args.json:
        payload["trace"] = result.history
    if args.out is not None:
        rows = [["pair", "label", "correct_probability"]] + [
            [row, label.value, f"{p:.6f}"] for row, label, p in zip(pairs.rows, pairs.labels, correct)
        ]
        with open(out / "bound_evaluation.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        payload["evaluation_csv"] = str(out / "bound_evaluation.csv")
    _emit(payload, args.json)
    return 0


def cmd_compile(args) -> int:
    u = parse_gate(args.gate)
    angles = decompose(u)
    payload = {key: round(a, 6) for key, a in zip(("q_first", "h", "q_last"), angles.tolist())}
    payload["roundtrip_residual"] = frobenius_distance_up_to_phase(triple_to_unitary(angles), u)
    _emit(payload, args.json)
    return 0


def cmd_sample_pairs(args) -> int:
    rng = RandomSource(args.seed)
    pairs = sample_pairs(rng, args.commuting, args.anticommuting)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pairs_to_csv(pairs, out)
    _emit({"written": str(out), "pairs": len(pairs)}, args.json)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``main``, built once per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="qswitch",
        description="Gate-order-superposition commutation testing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discriminate", help="run the switch protocol on two gates")
    p.add_argument("--u1", required=True, help="gate spec for the first gate")
    p.add_argument("--u2", required=True, help="gate spec for the second gate")
    p.add_argument("--state", default="+", help="input state spec (default '+')")
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("suite", help="simulate an experiment suite")
    p.add_argument("which", choices=["pauli", "random100", "statesweep"])
    p.add_argument("--seed", type=nonnegative, default=0, help="seed of the count stream")
    p.add_argument("--noise", help="JSON file of noise parameter overrides")
    p.add_argument("--out", default="suite_out", help="output directory")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("bound", help="compute the fixed-order success bound")
    p.add_argument("--out", help="directory for the per-pair evaluation CSV")
    p.add_argument("--seed", type=nonnegative, default=0, help="ignored: the bound is deterministic")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("compile", help="compile a gate to waveplate angles")
    p.add_argument("gate", help="gate spec")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sample-pairs", help="export random labeled gate pairs")
    p.add_argument("--commuting", type=nonnegative, default=50)
    p.add_argument("--anticommuting", type=nonnegative, default=50)
    p.add_argument("--out", default="pairs.csv")
    p.add_argument("--seed", type=nonnegative, default=0, help="seed of the sampling stream")
    p.set_defaults(func=cmd_sample_pairs)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-parseable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
