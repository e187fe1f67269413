"""Monte Carlo model of the looped Mach-Zehnder implementation of the switch.

Noise ingredients: finite fringe visibility, a deterministic interferometer
phase offset that grows with waveplate rotation (wedged plates) plus a slow
wall-clock drift, Poisson pair counting, and a reduced relative detection
efficiency eta on port 1 corrected by P0 = C0 / (C0 + C1/eta).

The rotation-induced offset is modeled as a function of the current plate
positions: each plate contributes its signed angular offset from the zeroed
(identity) configuration, wrapped to the plate's principal range (quarter-wave
plates repeat every 180 deg, half-wave plates every 90 deg up to phase).  The
offset resets whenever the interferometer phase is re-zeroed on identity.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from .gates import GatePair, RandomSource, classify_pair
from .linalg import ID2
from .switch import PLUS, Verdict
from .waveplates import (
    AngleTable,
    WaveplateTriple,
    decompose,
    hwp,
    load_pauli_table,
    load_random_pairs_table,
    triple_to_unitary,
)

__all__ = [
    "NoiseParams",
    "CountRecord",
    "SettingResult",
    "SuiteReport",
    "ideal_port_probabilities_with_noise",
    "simulate_counts",
    "corrected_probability",
    "calibrate_eta",
    "simulate_phase_sweep",
    "run_pauli_suite",
    "run_random_suite",
    "run_state_sweep",
]

SECONDS_PER_SETTING = 6.0  # 1 s of counting plus plate moves; 20 settings in ~2 min


@dataclass(frozen=True)
class NoiseParams:
    """Interferometer noise figures; defaults match the calibrated apparatus."""

    visibility: float = 0.994
    phase_setpoint: float = float(np.pi)
    phase_drift_per_degree: float = 0.002
    phase_drift_per_minute: float = 0.009
    eta: float = 0.7
    pairs_per_setting: float = 40000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite real number, got {value!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.pairs_per_setting <= 0:
            raise ValueError("pairs_per_setting must be positive")
        if self.phase_drift_per_degree < 0 or self.phase_drift_per_minute < 0:
            raise ValueError("drift rates must be nonnegative")

    @classmethod
    def noiseless(cls) -> "NoiseParams":
        return cls(
            visibility=1.0,
            phase_drift_per_degree=0.0,
            phase_drift_per_minute=0.0,
            eta=1.0,
        )


@dataclass(frozen=True)
class CountRecord:
    c0: int
    c1: int
    setting: str = ""
    true_label: Verdict | None = None
    wall_time: float = 0.0


def ideal_port_probabilities_with_noise(
    u1: np.ndarray,
    u2: np.ndarray,
    psi: np.ndarray,
    noise: NoiseParams,
    accumulated_rotation: float = 0.0,
    elapsed_minutes: float = 0.0,
) -> tuple[float, float]:
    """Two-path interference of the order branches with visibility and drift.

    The branches are U1 U2 psi / sqrt2 and U2 U1 psi / sqrt2; at unit
    visibility and phase pi this reduces exactly to the ideal switch.
    """
    branch_a = u1 @ u2 @ psi / np.sqrt(2.0)
    branch_b = u2 @ u1 @ psi / np.sqrt(2.0)
    phi = (
        noise.phase_setpoint
        + noise.phase_drift_per_degree * accumulated_rotation
        + noise.phase_drift_per_minute * elapsed_minutes
    )
    overlap = np.vdot(branch_a, branch_b)
    p1 = (np.linalg.norm(branch_a) ** 2 + np.linalg.norm(branch_b) ** 2) / 2.0
    p1 += noise.visibility * (np.exp(1j * phi) * overlap).real
    p1 = float(min(max(p1, 0.0), 1.0))
    return 1.0 - p1, p1


def simulate_counts(
    u1: np.ndarray,
    u2: np.ndarray,
    psi: np.ndarray,
    noise: NoiseParams,
    rng: RandomSource,
    accumulated_rotation: float = 0.0,
    elapsed_minutes: float = 0.0,
    setting: str = "",
    true_label: Verdict | None = None,
) -> CountRecord:
    """One second of Poisson pair counting at a single gate setting."""
    _, p1 = ideal_port_probabilities_with_noise(
        u1, u2, psi, noise, accumulated_rotation, elapsed_minutes
    )
    gen = rng.generator
    n = int(gen.poisson(noise.pairs_per_setting))
    n1 = int(gen.binomial(n, p1)) if n > 0 else 0
    c1 = int(gen.binomial(n1, noise.eta)) if n1 > 0 else 0
    rng.draws += 3
    return CountRecord(
        c0=n - n1,
        c1=c1,
        setting=setting,
        true_label=true_label,
        wall_time=elapsed_minutes * 60.0,
    )


def corrected_probability(c0: int, c1: int, eta: float) -> float:
    """Efficiency-corrected port-0 probability C0 / (C0 + C1/eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if c0 < 0 or c1 < 0:
        raise ValueError("counts must be nonnegative")
    if c0 + c1 == 0:
        raise ValueError("zero total counts")
    return c0 / (c0 + c1 / eta)


def calibrate_eta(sweep: list[CountRecord]) -> float:
    """Least-squares eta making C0 + C1/eta constant over a phase sweep."""
    if len(sweep) < 3:
        raise ValueError("need at least 3 sweep points")
    c0 = np.array([rec.c0 for rec in sweep], dtype=float)
    c1 = np.array([rec.c1 for rec in sweep], dtype=float)
    var1 = np.var(c1)
    cov = np.cov(c0, c1, bias=True)[0, 1]
    total = max(np.mean(c0 + c1), 1.0)
    if var1 < total or cov >= 0.0:
        raise ValueError("sweep has no usable fringe contrast")
    eta = -var1 / cov
    if not 0.0 < eta <= 1.5:
        raise ValueError(f"eta estimate {eta:.3f} out of physical range")
    return float(eta)


def simulate_phase_sweep(
    noise: NoiseParams, rng: RandomSource, n_points: int = 24
) -> list[CountRecord]:
    """Counts with identity gates while scanning the interferometer phase."""
    records = []
    for k, phase in enumerate(np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)):
        point = replace(
            noise,
            phase_setpoint=float(phase),
            phase_drift_per_degree=0.0,
            phase_drift_per_minute=0.0,
        )
        records.append(
            simulate_counts(ID2, ID2, PLUS, point, rng, setting=f"phase{k}")
        )
    return records


# --------------------------------------------------------------------------
# suite machinery


def _wrap(angle: float, period: float) -> float:
    """Map an angle to the centered principal range [-period/2, period/2)."""
    return (angle + period / 2.0) % period - period / 2.0


def rotation_offset(angles: tuple[float, ...]) -> float:
    """Signed plate offset (degrees) of a six-plate setting from all-zero.

    Plates alternate quarter, half, quarter for each of the two gates;
    quarter-wave plates are wrapped mod 180 deg and half-wave plates mod 90.
    """
    periods = (180.0, 90.0, 180.0, 180.0, 90.0, 180.0)
    return float(sum(_wrap(a, p) for a, p in zip(angles, periods, strict=True)))


@dataclass(frozen=True)
class _Setting:
    setting_id: str
    u1: np.ndarray
    u2: np.ndarray
    label: Verdict
    angles: tuple[float, ...]
    psi: np.ndarray


@dataclass
class SettingResult:
    setting_id: str
    label: str
    counts: list[tuple[int, int]]
    p0_corrected: float
    p0_std: float
    correct_prob: float


@dataclass
class SuiteReport:
    """Per-setting corrected probabilities and the suite-level success rate.

    ``success_std`` follows the apparatus convention: the largest per-setting
    standard deviation over repeats is used as the uniform error bar.
    ``setting_spread`` is the standard deviation of the per-setting success
    values across the suite.
    """

    suite: str
    seed: int
    repeats: int
    noise: NoiseParams
    settings: list[SettingResult]
    mean_success: float
    success_std: float
    setting_spread: float
    extras: dict = field(default_factory=dict)

    def csv_rows(self) -> list[list]:
        rows = [["setting", "label", "c0", "c1", "p0_corrected", "correct_port_probability"]]
        for s in self.settings:
            c0 = sum(c[0] for c in s.counts)
            c1 = sum(c[1] for c in s.counts)
            rows.append(
                [s.setting_id, s.label, c0, c1, f"{s.p0_corrected:.6f}", f"{s.correct_prob:.6f}"]
            )
        return rows

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "repeats": self.repeats,
            "noise": asdict(self.noise),
            "n_settings": len(self.settings),
            "mean_success": round(self.mean_success, 10),
            "success_std": round(self.success_std, 10),
            "setting_spread": round(self.setting_spread, 10),
            **self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)


def _run_groups(
    suite: str,
    groups: list[list[_Setting]],
    noise: NoiseParams,
    rng: RandomSource,
    repeats: int,
    extras: dict | None = None,
) -> SuiteReport:
    """Simulate repeated runs over groups of settings, re-zeroing per group."""
    all_settings = [s for group in groups for s in group]
    per_repeat_p0: dict[str, list[float]] = {s.setting_id: [] for s in all_settings}
    counts: dict[str, list[tuple[int, int]]] = {s.setting_id: [] for s in all_settings}
    for _ in range(repeats):
        for group in groups:
            for k, s in enumerate(group):
                rec = simulate_counts(
                    s.u1,
                    s.u2,
                    s.psi,
                    noise,
                    rng,
                    accumulated_rotation=rotation_offset(s.angles),
                    elapsed_minutes=(k + 1) * SECONDS_PER_SETTING / 60.0,
                    setting=s.setting_id,
                    true_label=s.label,
                )
                counts[s.setting_id].append((rec.c0, rec.c1))
                per_repeat_p0[s.setting_id].append(
                    corrected_probability(rec.c0, rec.c1, noise.eta)
                )
    results = []
    for s in all_settings:
        p0s = np.array(per_repeat_p0[s.setting_id])
        p0 = float(np.mean(p0s))
        correct = p0 if s.label is Verdict.COMMUTE else 1.0 - p0
        results.append(
            SettingResult(
                setting_id=s.setting_id,
                label=s.label.value,
                counts=counts[s.setting_id],
                p0_corrected=p0,
                p0_std=float(np.std(p0s)),
                correct_prob=correct,
            )
        )
    success = np.array([r.correct_prob for r in results])
    return SuiteReport(
        suite=suite,
        seed=rng.seed,
        repeats=repeats,
        noise=noise,
        settings=results,
        mean_success=float(np.mean(success)),
        success_std=float(max(r.p0_std for r in results)),
        setting_spread=float(np.std(success)),
        extras=extras or {},
    )


def _pauli_settings(psi: np.ndarray, prefix: str = "") -> list[_Setting]:
    table = load_pauli_table()
    triples = {row.index: row.triples for row in table.rows}
    settings = []
    for g1, g2 in itertools.product("IXYZ", repeat=2):
        t1, t2 = triples[g1][0], triples[g2][1]
        u1 = triple_to_unitary(t1)
        u2 = triple_to_unitary(t2)
        label = classify_pair(u1, u2, tol=1e-6)
        settings.append(
            _Setting(
                setting_id=f"{prefix}{g1}{g2}",
                u1=u1,
                u2=u2,
                label=label,
                angles=t1.as_tuple() + t2.as_tuple(),
                psi=psi,
            )
        )
    return settings


def run_pauli_suite(
    noise: NoiseParams, rng: RandomSource, psi: np.ndarray | None = None, repeats: int = 5
) -> SuiteReport:
    """All 16 Pauli-gate combinations, one group, phase re-zeroed at the start."""
    if psi is None:
        psi = PLUS
    return _run_groups("pauli", [_pauli_settings(psi)], noise, rng, repeats)


def _random_settings(
    pairs: list[GatePair] | None, table: AngleTable | None
) -> list[_Setting]:
    settings = []
    if pairs is None:
        table = table or load_random_pairs_table()
        for row in table.rows:
            c1, c2, a1, a2 = row.triples
            settings.append(
                _Setting(
                    setting_id=f"C{row.index}",
                    u1=triple_to_unitary(c1),
                    u2=triple_to_unitary(c2),
                    label=Verdict.COMMUTE,
                    angles=c1.as_tuple() + c2.as_tuple(),
                    psi=PLUS,
                )
            )
            settings.append(
                _Setting(
                    setting_id=f"A{row.index}",
                    u1=triple_to_unitary(a1),
                    u2=triple_to_unitary(a2),
                    label=Verdict.ANTICOMMUTE,
                    angles=a1.as_tuple() + a2.as_tuple(),
                    psi=PLUS,
                )
            )
        # group commuting and anti-commuting cases separately, as acquired
        settings = [s for s in settings if s.label is Verdict.COMMUTE] + [
            s for s in settings if s.label is Verdict.ANTICOMMUTE
        ]
    else:
        for k, pair in enumerate(pairs):
            t1 = decompose(pair.u1)
            t2 = decompose(pair.u2)
            settings.append(
                _Setting(
                    setting_id=f"P{k}",
                    u1=pair.u1,
                    u2=pair.u2,
                    label=pair.label,
                    angles=t1.as_tuple() + t2.as_tuple(),
                    psi=PLUS,
                )
            )
    return settings


def run_random_suite(
    noise: NoiseParams,
    rng: RandomSource,
    pairs: list[GatePair] | None = None,
    repeats: int = 5,
    group_size: int = 10,
) -> SuiteReport:
    """The 100 random commuting / anti-commuting pairs, in re-zeroed groups of ten.

    With ``pairs`` omitted the bundled angle table supplies both the gates and
    the plate angles; explicit pairs are compiled to angles on the fly.
    """
    settings = _random_settings(pairs, None)
    groups = [settings[k : k + group_size] for k in range(0, len(settings), group_size)]
    return _run_groups("random100", groups, noise, rng, repeats)


def run_state_sweep(
    noise: NoiseParams,
    rng: RandomSource,
    prep_angles: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0),
    repeats: int = 5,
) -> SuiteReport:
    """Pauli suite repeated for input states prepared by a rotated half-wave plate."""
    groups = []
    for angle in prep_angles:
        psi = hwp(angle) @ np.array([1.0, 0.0], dtype=complex)
        groups.append(_pauli_settings(psi, prefix=f"hwp{angle:g}:"))
    report = _run_groups("statesweep", groups, noise, rng, repeats)
    per_state = {}
    for angle in prep_angles:
        vals = [
            s.correct_prob for s in report.settings if s.setting_id.startswith(f"hwp{angle:g}:")
        ]
        per_state[f"hwp{angle:g}"] = round(float(np.mean(vals)), 10)
    report.extras["per_state_success"] = per_state
    return report
