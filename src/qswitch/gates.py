"""Random gate sampling and construction of commuting / anti-commuting pairs.

Commuting pairs share an eigenbasis R drawn from the Haar measure, with
independent uniform eigenphases.  Anti-commuting pairs are R sigma_z R^dag and
R sigma_y R^dag for the same Haar R.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .linalg import SY, SZ, frobenius_norm, require_unitary
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
]

DEFAULT_CLASSIFY_TOL = 1e-8
_VERDICTS = np.array([Verdict.COMMUTE, Verdict.ANTICOMMUTE, Verdict.NEITHER], dtype=object)


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


def _eigenphase_gates(rs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """R diag(1, e^{i theta}) R^dag for each basis R of a stack and its phase theta."""
    eigenvalues = np.stack([np.ones_like(theta), np.exp(1j * theta)], axis=-1)
    return (rs * eigenvalues[:, None, :]) @ rs.mT.conj()


def _labelled_pairs(u1: np.ndarray, u2: np.ndarray, label: Verdict, record: dict) -> list[GatePair]:
    return [GatePair(u1=a, u2=b, label=label, seed_record=record) for a, b in zip(u1, u2)]


def _commuting_pairs(rng: RandomSource, n: int) -> list[GatePair]:
    """n pairs R diag(1, e^{i theta_k}) R^dag, k = 1, 2, with Haar R and uniform thetas."""
    record = rng.record()
    rs = haar_random_unitaries(rng, n)
    thetas = rng.generator.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    c1, c2 = (_eigenphase_gates(rs, thetas[:, k]) for k in (0, 1))
    return _labelled_pairs(c1, c2, Verdict.COMMUTE, record)


def _anticommuting_pairs(rng: RandomSource, n: int) -> list[GatePair]:
    """n pairs R sigma_z R^dag, R sigma_y R^dag with Haar R."""
    record = rng.record()
    rs = haar_random_unitaries(rng, n)
    return _labelled_pairs(rs @ SZ @ rs.mT.conj(), rs @ SY @ rs.mT.conj(), Verdict.ANTICOMMUTE, record)


def commuting_pair(rng: RandomSource) -> GatePair:
    """C_k = R diag(1, e^{i theta_k}) R^dag with Haar R and uniform thetas."""
    return _commuting_pairs(rng, 1)[0]


def anticommuting_pair(rng: RandomSource) -> GatePair:
    """A_1 = R sigma_z R^dag, A_2 = R sigma_y R^dag for one Haar R."""
    return _anticommuting_pairs(rng, 1)[0]


def classify_pair(u1: np.ndarray, u2: np.ndarray, tol: float = DEFAULT_CLASSIFY_TOL) -> Verdict | np.ndarray:
    """Label a pair by the Frobenius norm of its commutator / anti-commutator.

    For stacks (..., 2, 2) of gates the result is an object array of
    ``Verdict``; for one pair it is the ``Verdict`` member itself.
    """
    if not tol > 0:  # NaN included
        raise ValueError("tolerance must be positive")
    u1 = require_unitary(u1)
    u2 = require_unitary(u2)
    ab, ba = u1 @ u2, u2 @ u1
    comm = frobenius_norm(ab - ba) <= tol
    anti = frobenius_norm(ab + ba) <= tol
    if np.any(comm & anti):
        raise ValueError("both norms within tolerance; inputs cannot be unitary")
    return _VERDICTS[np.where(comm, 0, np.where(anti, 1, 2))]


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
    port = np.array([ports[pair.label] for pair in pairs], dtype=int)
    shape = (len(pairs), 2, 2)  # also when there are none
    u1 = np.array([pair.u1 for pair in pairs], dtype=complex).reshape(shape)
    u2 = np.array([pair.u2 for pair in pairs], dtype=complex).reshape(shape)
    return u1, u2, port


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
