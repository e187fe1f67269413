"""Random gate sampling and construction of commuting / anti-commuting pairs.

Commuting pairs share an eigenbasis R drawn from the Haar measure, with
independent uniform eigenphases.  Anti-commuting pairs are R sigma_z R^dag and
R sigma_y R^dag for the same Haar R.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import SY, SZ, require_unitary
from .switch import Verdict

__all__ = [
    "RandomSource",
    "GatePair",
    "haar_random_unitaries",
    "commuting_pair",
    "anticommuting_pair",
    "classify_pair",
    "sample_pairs",
    "stack_pairs",
    "pairs_to_csv",
    "pairs_to_json",
]

DEFAULT_CLASSIFY_TOL = 1e-8


@dataclass
class RandomSource:
    """Seeded PCG64 stream whose exact state can be recorded and replayed."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def record(self) -> dict:
        """The seed and the exact bit-generator state.

        Assigning ``state`` to the ``state`` of a fresh ``np.random.PCG64``
        replays the stream from this point.
        """
        return {"seed": self.seed, "state": self._gen.bit_generator.state}


@dataclass(frozen=True)
class GatePair:
    """Two 2x2 unitaries with a ground-truth promise label."""

    u1: np.ndarray
    u2: np.ndarray
    label: Verdict
    seed_record: dict | None = None


def _ginibre_to_unitary(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    return q * phase[..., None, :]


def haar_random_unitaries(rng: RandomSource, n: int) -> np.ndarray:
    """Stack of n Haar-random 2x2 unitaries (Ginibre + phase-fixed QR), shape (n, 2, 2)."""
    gen = rng.generator
    g = gen.standard_normal((n, 2, 2)) + 1j * gen.standard_normal((n, 2, 2))
    # singular draws have probability zero; patch any numerically bad ones
    bad = np.abs(np.linalg.det(g)) <= 1e-12
    while np.any(bad):
        g[bad] = gen.standard_normal((int(bad.sum()), 2, 2)) + 1j * gen.standard_normal(
            (int(bad.sum()), 2, 2)
        )
        bad = np.abs(np.linalg.det(g)) <= 1e-12
    return _ginibre_to_unitary(g)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -2, -1))


def _eigenphase_gates(rs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """R diag(1, e^{i theta}) R^dag for each basis R of a stack and its phase theta."""
    eigenvalues = np.stack([np.ones_like(theta), np.exp(1j * theta)], axis=-1)
    return (rs * eigenvalues[:, None, :]) @ _dagger(rs)


def _labelled_pairs(u1: np.ndarray, u2: np.ndarray, label: Verdict, record: dict) -> list[GatePair]:
    return [GatePair(u1=a, u2=b, label=label, seed_record=record) for a, b in zip(u1, u2)]


def _commuting_pairs(rng: RandomSource, n: int, thetas: tuple[float, float] | None = None,
                     basis: np.ndarray | None = None) -> list[GatePair]:
    """n pairs R diag(1, e^{i theta_k}) R^dag, k = 1, 2, with Haar R and uniform thetas.

    A forced ``basis`` or ``thetas`` (one pair's worth) replaces the draw.
    """
    record = rng.record()
    rs = haar_random_unitaries(rng, n) if basis is None else require_unitary(basis)[None]
    if thetas is None:
        thetas = rng.generator.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    thetas = np.reshape(thetas, (-1, 2))
    c1, c2 = (_eigenphase_gates(rs, thetas[:, k]) for k in (0, 1))
    return _labelled_pairs(c1, c2, Verdict.COMMUTE, record)


def _anticommuting_pairs(rng: RandomSource, n: int, basis: np.ndarray | None = None) -> list[GatePair]:
    """n pairs R sigma_z R^dag, R sigma_y R^dag with Haar R (or a forced ``basis``)."""
    record = rng.record()
    rs = haar_random_unitaries(rng, n) if basis is None else require_unitary(basis)[None]
    return _labelled_pairs(rs @ SZ @ _dagger(rs), rs @ SY @ _dagger(rs), Verdict.ANTICOMMUTE, record)


def commuting_pair(rng: RandomSource, thetas: tuple[float, float] | None = None,
                   basis: np.ndarray | None = None) -> GatePair:
    """C_k = R diag(1, e^{i theta_k}) R^dag with Haar R and uniform thetas.

    ``thetas`` and ``basis`` can be forced for testing; by default both are
    drawn from the stream.
    """
    return _commuting_pairs(rng, 1, thetas, basis)[0]


def anticommuting_pair(rng: RandomSource, basis: np.ndarray | None = None) -> GatePair:
    """A_1 = R sigma_z R^dag, A_2 = R sigma_y R^dag for one Haar R."""
    return _anticommuting_pairs(rng, 1, basis)[0]


def classify_pair(u1: np.ndarray, u2: np.ndarray, tol: float = DEFAULT_CLASSIFY_TOL) -> Verdict:
    """Label a pair by the Frobenius norm of its commutator / anti-commutator."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    u1 = require_unitary(u1)
    u2 = require_unitary(u2)
    comm = np.linalg.norm(u1 @ u2 - u2 @ u1)
    anti = np.linalg.norm(u1 @ u2 + u2 @ u1)
    if comm <= tol and anti <= tol:
        raise ValueError("both norms within tolerance; inputs cannot be unitary")
    if comm <= tol:
        return Verdict.COMMUTE
    if anti <= tol:
        return Verdict.ANTICOMMUTE
    return Verdict.NEITHER


def sample_pairs(rng: RandomSource, n_commuting: int, n_anticommuting: int) -> list[GatePair]:
    """``n_commuting`` commuting pairs followed by ``n_anticommuting`` anti-commuting ones.

    Each class is drawn as one stack; every pair records the stream state its
    class was drawn from.
    """
    return _commuting_pairs(rng, n_commuting) + _anticommuting_pairs(rng, n_anticommuting)


def stack_pairs(pairs: list[GatePair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gates of labeled pairs as two (n, 2, 2) stacks, and the exit port each
    label calls for (0 for COMMUTE, 1 for ANTICOMMUTE)."""
    ports = {Verdict.COMMUTE: 0, Verdict.ANTICOMMUTE: 1}
    if any(pair.label not in ports for pair in pairs):
        raise ValueError("pairs must be labeled COMMUTE or ANTICOMMUTE")
    port = np.array([ports[pair.label] for pair in pairs])
    return np.array([pair.u1 for pair in pairs]), np.array([pair.u2 for pair in pairs]), port


def _pair_row(index: int, pair: GatePair) -> list:
    row: list = [index, pair.label.value]
    for gate in (pair.u1, pair.u2):
        for entry in gate.reshape(-1):
            row += [float(entry.real), float(entry.imag)]
    row.append((pair.seed_record or {}).get("seed", ""))  # table pairs record a row, not a seed
    return row


_CSV_HEADER = ["index", "label"] + [
    f"{g}_{i}{j}_{p}" for g in ("u1", "u2") for i in (0, 1) for j in (0, 1) for p in ("re", "im")
] + ["seed"]


def pairs_to_csv(pairs: list[GatePair], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for k, pair in enumerate(pairs):
            writer.writerow(_pair_row(k, pair))


def pairs_to_json(pairs: list[GatePair]) -> str:
    rows = []
    for k, pair in enumerate(pairs):
        rows.append(
            {
                "index": k,
                "label": pair.label.value,
                "u1": [[entry.real, entry.imag] for entry in pair.u1.reshape(-1)],
                "u2": [[entry.real, entry.imag] for entry in pair.u2.reshape(-1)],
                "seed_record": pair.seed_record,
            }
        )
    return json.dumps(rows, indent=2)
