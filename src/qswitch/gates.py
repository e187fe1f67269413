"""Random gate sampling, the two promise classes of gate pairs, and their labels.

``sample_pairs`` draws both classes: commuting pairs share an eigenbasis R
drawn from the Haar measure, with independent uniform eigenphases, and
anti-commuting pairs are R sigma_z R^dag and R sigma_y R^dag for one Haar R.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .linalg import det2, frobenius_norm, require_unitary_pair
from .switch import PORT_VERDICTS, Verdict

__all__ = [
    "RandomSource",
    "GatePair",
    "PairStack",
    "haar_random_unitaries",
    "classify_pair",
    "sample_pairs",
    "pairs_to_csv",
]

DEFAULT_CLASSIFY_TOL = 1e-6
_VERDICTS = np.array([Verdict.COMMUTE, Verdict.ANTICOMMUTE, Verdict.NEITHER], dtype=object)


class RandomSource:
    """Seeded PCG64 stream whose exact state can be recorded and replayed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def record(self) -> dict:
        """The seed and the exact bit-generator state.

        Assigning ``state`` to the ``state`` of a fresh ``np.random.PCG64``
        replays the stream from this point.
        """
        return {"seed": self.seed, "state": self.generator.bit_generator.state}


@dataclass(frozen=True)
class GatePair:
    """Two 2x2 unitaries with a ground-truth promise label: one pair of a ``PairStack``."""

    u1: np.ndarray
    u2: np.ndarray
    label: Verdict


class PairStack:
    """Labelled pairs as (n, 2, 2) gate stacks ``u1``, ``u2`` and the (n,) exit ``port``
    each label calls for (``labels`` is ``PORT_VERDICTS[port]``), with the ``seed`` they
    were sampled from or each pair's angle-table row in ``rows``.

    Indexing and iteration give ``GatePair`` views into the stacks.
    """

    def __init__(self, u1: np.ndarray, u2: np.ndarray, port: np.ndarray,
                 seed: int | None = None, rows: tuple[str, ...] | None = None) -> None:
        self.u1, self.u2, self.port = np.asarray(u1), np.asarray(u2), np.asarray(port)
        if not (self.port.ndim == 1 and self.u1.shape == self.u2.shape == (len(self.port), 2, 2)):
            shapes = self.u1.shape, self.u2.shape, self.port.shape
            raise ValueError(f"expected (n, 2, 2) gates and (n,) ports, got shapes {shapes}")
        if not (np.issubdtype(self.port.dtype, np.integer) and np.isin(self.port, (0, 1)).all()):
            raise ValueError("port must be 0 (COMMUTE) or 1 (ANTICOMMUTE)")
        if rows is not None and len(rows) != len(self.port):
            raise ValueError(f"expected one row name per pair, got {len(rows)} for {len(self.port)} pairs")
        self.seed, self.rows = seed, rows

    @property
    def labels(self) -> np.ndarray:
        return PORT_VERDICTS[self.port]

    def __len__(self) -> int:
        return len(self.port)

    def __getitem__(self, k: int) -> GatePair:
        return GatePair(self.u1[k], self.u2[k], PORT_VERDICTS[self.port[k]])

    def __iter__(self):
        return map(GatePair, self.u1, self.u2, self.labels)

    def __setitem__(self, k: int, pair: GatePair) -> None:
        # perfbench/selftest.py relabels one sampled pair this way to test the discriminate gate
        verdicts = PORT_VERDICTS.tolist()
        if pair.label not in verdicts:
            raise ValueError(f"a stacked pair must be labelled COMMUTE or ANTICOMMUTE, got {pair.label}")
        self.u1[k], self.u2[k], self.port[k] = pair.u1, pair.u2, verdicts.index(pair.label)


def haar_random_unitaries(rng: RandomSource, n: int) -> np.ndarray:
    """Stack of n Haar-random 2x2 unitaries (Ginibre + phase-fixed QR), shape (n, 2, 2)."""
    def ginibre(k: int) -> np.ndarray:
        return rng.generator.standard_normal((k, 2, 2)) + 1j * rng.generator.standard_normal((k, 2, 2))

    g = ginibre(n)
    # singular draws have probability zero; patch any numerically bad ones
    bad = np.abs(det2(g)) <= 1e-12
    while np.any(bad):
        g[bad] = ginibre(int(bad.sum()))
        bad = np.abs(det2(g)) <= 1e-12
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def classify_pair(u1: np.ndarray, u2: np.ndarray, tol: float = DEFAULT_CLASSIFY_TOL) -> Verdict | np.ndarray:
    """Label a pair by the Frobenius norm of its commutator / anti-commutator.

    For stacks (..., 2, 2) of gates the result is an object array of
    ``Verdict``; for one pair it is the ``Verdict`` member itself.
    """
    if not 0 < tol < 2:  # NaN included; unitaries have ||[A,B]||^2 + ||{A,B}||^2 = 8, so from 2 both could pass
        raise ValueError("tolerance must be in (0, 2)")
    u1, u2 = np.split(require_unitary_pair(u1, u2), 2, axis=-2)
    ab, ba = u1 @ u2, u2 @ u1
    comm = frobenius_norm(ab - ba) <= tol
    anti = frobenius_norm(ab + ba) <= tol
    return _VERDICTS[np.where(comm, 0, np.where(anti, 1, 2))]


def sample_pairs(rng: RandomSource, n_commuting: int, n_anticommuting: int) -> PairStack:
    """``n_commuting`` commuting pairs C_k = R diag(1, e^{i theta_k}) R^dag (k = 1, 2), then
    ``n_anticommuting`` anti-commuting pairs A_1 = R sigma_z R^dag, A_2 = R sigma_y R^dag, with
    one Haar R per pair and uniform thetas. Every gate is L R^dag, so one product forms them all."""
    rc = haar_random_unitaries(rng, n_commuting)
    thetas = rng.generator.uniform(0.0, 2.0 * np.pi, size=(n_commuting, 2))
    ra = haar_random_unitaries(rng, n_anticommuting)
    eigenvalues = np.stack([np.ones_like(thetas), np.exp(1j * thetas)], axis=-1)
    # R sigma_z: R's second column negated; R sigma_y: its columns swapped times (i, -i). Each
    # entry is an entry of R times 1, -1, i or -i, as in R @ SZ and R @ SY, so bit for bit equal
    rz, ry = ra * np.array([1.0, -1.0]), ra[..., ::-1] * np.array([1j, -1j])
    # the L factors of both gates of every pair, stacked (n, 4, 2), times each pair's R^dag in one product
    left = np.concatenate([rc[:, None] * eigenvalues[..., None, :], np.stack([rz, ry], axis=1)]).reshape(-1, 4, 2)
    gates = (left @ np.concatenate([rc, ra]).mT.conj()).reshape(-1, 2, 2, 2)
    port = np.repeat([0, 1], [n_commuting, n_anticommuting])
    return PairStack(gates[:, 0], gates[:, 1], port, seed=rng.seed)


_CSV_HEADER = ["index", "label"] + [
    f"{g}_{i}{j}_{p}" for g in ("u1", "u2") for i in (0, 1) for j in (0, 1) for p in ("re", "im")
] + ["seed"]


def pairs_to_csv(pairs: PairStack, path) -> None:
    """Rows of index, label, (re, im) of u1 then u2 row-major, and seed (empty if not sampled)."""
    entries = np.stack([pairs.u1, pairs.u2], axis=1).reshape(-1, 8)
    floats = np.stack([entries.real, entries.imag], axis=-1).reshape(-1, 16).tolist()
    seed = "" if pairs.seed is None else pairs.seed
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows([k, label.value, *row, seed]
                         for k, (label, row) in enumerate(zip(pairs.labels, floats)))
