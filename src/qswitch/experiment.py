"""Monte Carlo model of the looped Mach-Zehnder implementation of the switch.

Noise ingredients: finite fringe visibility, a deterministic interferometer
phase offset that grows with waveplate rotation (wedged plates) plus a slow
wall-clock drift, Poisson pair counting, and a reduced relative detection
efficiency eta on port 1 corrected by P0 = C0 / (C0 + C1/eta).

Counting: a setting sends Poisson(lam) pairs into the interferometer, each
leaves by port 1 with probability p1 and is then detected with probability
eta.  By Poisson thinning that gives two independent counts,
C0 ~ Poisson(lam (1 - p1)) and C1 ~ Poisson(lam p1 eta), which is how
``simulate_counts`` draws them: a whole suite's counts, or a whole calibration
sweep's, come from one generator call.

The rotation-induced offset is modeled as a function of the current plate
positions: each plate contributes its signed angular offset from the zeroed
(identity) configuration, wrapped to the plate's principal range (quarter-wave
plates repeat every 180 deg, half-wave plates every 90 deg up to phase).  The
offset resets whenever the interferometer phase is re-zeroed on identity.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
import sys
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .gates import PairStack, RandomSource, classify_pair
from .linalg import ID2, both_orders, read_only, require_state
from .switch import PLUS, PORT_VERDICTS
from .waveplates import (
    decompose,
    hwp,
    load_pauli_table,
    load_random_pairs_table,
    table_gate_pairs,
    triple_to_unitary,
)

__all__ = [
    "NoiseParams",
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
REPEATS = 5  # runs of each suite over its settings
RANDOM_GROUP_SIZE = 10  # random-pairs settings between phase re-zeroings
PREP_ANGLES = (0.0, 10.0, 20.0, 30.0, 40.0)  # state-sweep half-wave plate angles (deg)
SWEEP_POINTS = 24  # phases of the calibration sweep
# far above any photon-pair source, and far below numpy's Poisson limit (~9.2e18)
MAX_PAIRS_PER_SETTING = 1e12


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
            # exact for ints, so one beyond float range fails here, as do NaN and inf
            if not (real and abs(value) <= sys.float_info.max):
                raise ValueError(f"{f.name} must be a finite real number, got {value!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not 0 < self.pairs_per_setting <= MAX_PAIRS_PER_SETTING:
            raise ValueError(f"pairs_per_setting must be in (0, {MAX_PAIRS_PER_SETTING:g}]")
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


def ideal_port_probabilities_with_noise(
    u1: np.ndarray,
    u2: np.ndarray,
    psi: np.ndarray,
    noise: NoiseParams,
    phase: float | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-path interference of the order branches with visibility and phase.

    The branches are U1 U2 psi / sqrt2 and U2 U1 psi / sqrt2, and they meet at
    the interferometer ``phase`` in radians, ``noise.phase_setpoint`` if
    omitted; at unit visibility and phase pi this reduces exactly to the ideal
    switch.  Gates (..., 2, 2), states (..., 2) and phases broadcast as stacks.
    """
    branch_a, branch_b = (x / np.sqrt(2.0) for x in both_orders(u1, u2, require_state(psi, 2)))
    phi = np.asarray(noise.phase_setpoint if phase is None else phase)
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite phase: the interferometer phase must be finite")
    overlap = np.sum(branch_a.conj() * branch_b, axis=-1)
    p1 = (np.sum(np.abs(branch_a) ** 2, axis=-1) + np.sum(np.abs(branch_b) ** 2, axis=-1)) / 2.0
    p1 = np.clip(p1 + noise.visibility * (np.exp(1j * phi) * overlap).real, 0.0, 1.0)
    return 1.0 - p1, p1


def simulate_counts(
    u1: np.ndarray,
    u2: np.ndarray,
    psi: np.ndarray,
    noise: NoiseParams,
    rng: RandomSource,
    phase: float | np.ndarray | None = None,
    size: tuple[int, ...] = (),
) -> np.ndarray:
    """Counts (..., 2) of C0 ~ Poisson(lam (1 - p1)) and C1 ~ Poisson(lam p1 eta).

    Arguments broadcast as in ``ideal_port_probabilities_with_noise``; ``size``
    prepends axes of independent repeats.  All counts come from one draw.
    """
    _, p1 = ideal_port_probabilities_with_noise(u1, u2, psi, noise, phase)
    lam = noise.pairs_per_setting * np.stack([1.0 - p1, noise.eta * p1], axis=-1)
    return rng.generator.poisson(lam, size=size + lam.shape)


def _require_counts(counts: np.ndarray) -> np.ndarray:
    """``counts`` as a float array; ValueError unless every count is in [0, 2**53], where
    floats hold every integer exactly (``simulate_counts`` draws at most about 1e12)."""
    counts = np.asarray(counts, dtype=float)
    if not np.all((counts >= 0) & (counts <= 2.0**53)):  # NaN and inf included
        raise ValueError("counts must be finite and nonnegative, at most 2**53")
    return counts


def corrected_probability(c0: np.ndarray, c1: np.ndarray, eta: float) -> np.ndarray:
    """Efficiency-corrected port-0 probability C0 / (C0 + C1/eta), elementwise on arrays."""
    if not 0 < eta < np.inf:  # NaN included
        raise ValueError("eta must be finite and positive")
    c0, c1 = _require_counts(c0), _require_counts(c1)
    if np.any(c0 + c1 == 0):
        raise ValueError("zero total counts")
    return c0 / (c0 + c1 / eta)


def calibrate_eta(counts: np.ndarray) -> float:
    """Least-squares eta making C0 + C1/eta constant over a phase sweep of (n, 2) counts."""
    counts = _require_counts(counts)
    if counts.ndim != 2 or counts.shape[1] != 2 or len(counts) < 3:
        raise ValueError(f"need (n, 2) counts of at least 3 sweep points, got shape {counts.shape}")
    c0, c1 = counts.T
    var1 = np.var(c1)
    cov = np.cov(c0, c1, bias=True)[0, 1]
    total = max(np.mean(c0 + c1), 1.0)
    if var1 < total or cov >= 0.0:
        raise ValueError("sweep has no usable fringe contrast")
    eta = -var1 / cov
    if not 0.0 < eta <= 1.5:
        raise ValueError(f"eta estimate {eta:.3f} out of physical range")
    return float(eta)


def simulate_phase_sweep(noise: NoiseParams, rng: RandomSource) -> np.ndarray:
    """Counts (``SWEEP_POINTS``, 2) with identity gates over a full turn of the
    interferometer phase, drawn in one call."""
    phases = np.linspace(0.0, 2.0 * np.pi, SWEEP_POINTS, endpoint=False)
    return simulate_counts(ID2, ID2, PLUS, noise, rng, phase=phases)


# --------------------------------------------------------------------------
# suite machinery


def rotation_offset(angles: tuple[float, ...] | np.ndarray) -> np.ndarray:
    """Signed plate offset (degrees) of a six-plate setting from all-zero.

    Plates alternate quarter, half, quarter for each of the two gates;
    quarter-wave plates are wrapped mod 180 deg and half-wave plates mod 90,
    each to its centered range [-period/2, period/2).
    ``angles`` may be a stack (..., 6) of settings.
    """
    periods = np.array([180.0, 90.0, 180.0, 180.0, 90.0, 180.0])
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != periods.shape:
        raise ValueError(f"expected six plate angles, got shape {angles.shape}")
    return ((angles + periods / 2.0) % periods - periods / 2.0).sum(axis=-1)


@dataclass(frozen=True)
class _Settings:
    """A suite's settings in acquisition order: the labelled gate ``pairs``, each
    setting's plate ``angles``, and the input state ``psi``, one for all or a stack.

    The interferometer phase is re-zeroed at the start of every ``group``
    consecutive settings.  A packaged suite's settings are built once per
    process, on first use, and read-only.
    """

    ids: tuple[str, ...]
    pairs: PairStack
    angles: np.ndarray  # (setting, 6): the plate triples of u1, then of u2
    psi: np.ndarray
    group: int


@dataclass
class SuiteReport:
    """A suite's per-setting results as arrays over settings, in acquisition order.

    ``counts`` is (repeat, setting, port); ``p0`` and ``p0_std`` are the mean
    and standard deviation over repeats of the corrected port-0 probability,
    and ``success`` is the probability of the correct port.  The summary
    numbers are derived from these arrays.  ``success_std`` follows the
    apparatus convention: the largest per-setting standard deviation over
    repeats is used as the uniform error bar.  ``setting_spread`` is the
    standard deviation of the per-setting success values across the suite.
    """

    suite: str
    seed: int
    noise: NoiseParams
    ids: tuple[str, ...]
    labels: np.ndarray  # object array of Verdict
    counts: np.ndarray
    p0: np.ndarray
    p0_std: np.ndarray
    success: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def repeats(self) -> int:
        return len(self.counts)

    @property
    def mean_success(self) -> float:
        return float(np.mean(self.success))

    @property
    def success_std(self) -> float:
        return float(np.max(self.p0_std))

    @property
    def setting_spread(self) -> float:
        return float(np.std(self.success))

    def csv_rows(self) -> list[list]:
        totals = self.counts.sum(axis=0).tolist()
        return [["setting", "label", "c0", "c1", "p0_corrected", "correct_port_probability"]] + [
            [setting_id, label.value, c0, c1, f"{p0:.6f}", f"{ok:.6f}"]
            for setting_id, label, (c0, c1), p0, ok in zip(
                self.ids, self.labels, totals, self.p0.tolist(), self.success.tolist()
            )
        ]

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "repeats": self.repeats,
            "noise": asdict(self.noise),
            "n_settings": len(self.ids),
            "mean_success": round(self.mean_success, 10),
            "success_std": round(self.success_std, 10),
            "setting_spread": round(self.setting_spread, 10),
            **self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)


def _run_groups(suite: str, settings: _Settings, noise: NoiseParams, rng: RandomSource) -> SuiteReport:
    """Simulate ``REPEATS`` runs over the settings, re-zeroing the phase per group:
    it drifts with each setting's plate offset and the minutes since re-zeroing."""
    pairs = settings.pairs
    minutes = (np.arange(len(pairs)) % settings.group + 1) * SECONDS_PER_SETTING / 60.0
    with np.errstate(over="ignore", invalid="ignore"):  # simulate_counts rejects a non-finite phase
        phase = (noise.phase_setpoint + noise.phase_drift_per_degree * rotation_offset(settings.angles)
                 + noise.phase_drift_per_minute * minutes)
    counts = simulate_counts(pairs.u1, pairs.u2, settings.psi, noise, rng, phase,
                             size=(REPEATS,))  # (repeat, setting, port)
    p0s = corrected_probability(counts[..., 0], counts[..., 1], noise.eta)
    p0 = p0s.mean(axis=0)
    return SuiteReport(
        suite, rng.seed, noise, settings.ids, pairs.labels,
        counts, p0, p0s.std(axis=0), np.where(pairs.port == 0, p0, 1.0 - p0),
    )


def _read_only(settings: _Settings) -> _Settings:
    read_only(settings.pairs.u1, settings.pairs.u2, settings.pairs.port, settings.angles, settings.psi)
    return settings


@functools.cache
def _plus_pauli_settings() -> _Settings:
    """The 16 Pauli pairs on |+> in the table's row order (I, X, Y, Z) squared, in one group."""
    table = load_pauli_table()
    # the first gate's first-slot triple and the second gate's second-slot one
    triples = np.stack([table.angles[:, 0].repeat(4, axis=0), np.tile(table.angles[:, 1], (4, 1))], axis=1)
    gates = triple_to_unitary(triples)
    ids = tuple(g1 + g2 for g1, g2 in itertools.product(table.index, repeat=2))
    # row p marks the pairs labelled PORT_VERDICTS[p]; a NEITHER pair is marked in no row
    ports = classify_pair(gates[:, 0], gates[:, 1]) == PORT_VERDICTS[:, None]
    unlabelled = np.flatnonzero(~ports.any(axis=0))
    if unlabelled.size:
        raise ValueError(f"setting {ids[unlabelled[0]]}: the pair neither commutes nor anti-commutes")
    pairs = PairStack(gates[:, 0], gates[:, 1], ports.argmax(axis=0))
    return _read_only(_Settings(ids, pairs, triples.reshape(16, 6), PLUS, 16))


def run_pauli_suite(noise: NoiseParams, rng: RandomSource) -> SuiteReport:
    """All 16 Pauli-gate combinations on |+>, one group, phase re-zeroed at the start."""
    return _run_groups("pauli", _plus_pauli_settings(), noise, rng)


@functools.cache
def _table_settings() -> _Settings:
    pairs = table_gate_pairs()  # classification-checked, and the one cached stack
    table = load_random_pairs_table()
    # commuting cases first, then the anti-commuting ones, as acquired and as in ``pairs``
    angles = np.concatenate([table.angles[:, 0:2], table.angles[:, 2:4]]).reshape(-1, 6)
    ids = tuple("CA"[port] + row for port, row in zip(pairs.port.tolist(), pairs.rows))
    return _read_only(_Settings(ids, pairs, angles, PLUS, RANDOM_GROUP_SIZE))


def run_random_suite(noise: NoiseParams, rng: RandomSource, pairs: PairStack | None = None) -> SuiteReport:
    """The 100 random commuting / anti-commuting pairs, in re-zeroed groups of ten.

    With ``pairs`` omitted the bundled angle table supplies both the gates and
    the plate angles; explicit pairs are compiled to angles on the fly.
    """
    if pairs is None:
        return _run_groups("random100", _table_settings(), noise, rng)
    if len(pairs) == 0:
        raise ValueError("no pairs were given")
    angles = decompose(np.stack([pairs.u1, pairs.u2], axis=1)).reshape(-1, 6)
    settings = _Settings(tuple(f"P{k}" for k in range(len(pairs))), pairs, angles, PLUS, RANDOM_GROUP_SIZE)
    return _run_groups("random100", settings, noise, rng)


@functools.cache
def _sweep_settings() -> _Settings:
    """The Pauli settings repeated, one group each, for every ``PREP_ANGLES`` state."""
    pauli = _plus_pauli_settings()
    psi = hwp(np.array(PREP_ANGLES)) @ np.array([1.0, 0.0], dtype=complex)
    every = np.tile(np.arange(len(pauli.ids)), len(PREP_ANGLES))  # the Pauli settings once per state
    pairs = PairStack(pauli.pairs.u1[every], pauli.pairs.u2[every], pauli.pairs.port[every])
    ids = tuple(f"hwp{angle:g}:{pair}" for angle in PREP_ANGLES for pair in pauli.ids)
    return _read_only(_Settings(ids, pairs, pauli.angles[every], np.repeat(psi, len(pauli.ids), axis=0),
                                pauli.group))


def run_state_sweep(noise: NoiseParams, rng: RandomSource) -> SuiteReport:
    """Pauli suite repeated for input states prepared by a half-wave plate at ``PREP_ANGLES``."""
    report = _run_groups("statesweep", _sweep_settings(), noise, rng)
    success = report.success.reshape(len(PREP_ANGLES), -1)
    report.extras["per_state_success"] = {
        f"hwp{angle:g}": round(float(mean), 10) for angle, mean in zip(PREP_ANGLES, success.mean(1))
    }
    return report
