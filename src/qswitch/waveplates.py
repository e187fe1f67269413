"""Jones-calculus waveplates and quarter-half-quarter gate compilation.

Conventions (validated by the bundled Pauli angle table):

* rotation R(t) is the real 2x2 rotation by t,
* QWP(t) = R(t) diag(1, i) R(-t),
* HWP(t) = R(t) diag(1, -1) R(-t),
* in a triple (q_first, h, q_last) the first-listed plate acts first, so the
  realized gate is QWP(q_last) @ HWP(h) @ QWP(q_first).

``decompose`` inverts the triple in closed form via the quaternion (Bloch
rotation) picture: both plate types rotate the Bloch sphere about axes in the
x-z plane, by pi/2 (QWP) and pi (HWP).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import gates  # looked up at call time, so a wrapper set on gates.classify_pair sees these calls
from .linalg import det2, read_only, require_unitary
from .switch import PORT_VERDICTS

__all__ = [
    "AngleTable",
    "qwp",
    "hwp",
    "triple_to_unitary",
    "decompose",
    "load_pauli_table",
    "load_random_pairs_table",
    "table_gate_pairs",
    "TABLE_ANGLE_TOL",
]

# classification tolerance for gates rebuilt from angles printed to 0.01 deg
TABLE_ANGLE_TOL = 0.05

# |Im det| of a unitary on the negative real axis, after rounding: det2 leaves about 2e-16
_DET_AXIS_TOL = 1e-14


@dataclass(frozen=True)
class AngleTable:
    """Rows of plate triples: ``angles`` is (rows, triples, 3) in degrees, each
    triple ordered (q_first, h, q_last) as the photon meets the plates; read-only."""

    index: tuple[str, ...]
    angles: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def _radians(degrees: float | np.ndarray) -> np.ndarray:
    """Plate angles in degrees as radians, raising ValueError for a NaN or infinite angle."""
    degrees = np.asarray(degrees, dtype=float)
    if not np.isfinite(degrees).all():
        raise ValueError("plate angles must be finite")
    return np.deg2rad(degrees)


def _plate(theta_deg: float | np.ndarray, retardance: np.ndarray) -> np.ndarray:
    """R(t) diag(retardance) R(-t) for each angle of a stack, shape (..., 2, 2)."""
    t = _radians(theta_deg)
    c, s = np.cos(t), np.sin(t)
    r = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2).astype(complex)
    return r @ retardance @ r.mT.conj()


def qwp(theta_deg: float | np.ndarray) -> np.ndarray:
    """Quarter-wave plate(s) with fast axis at ``theta_deg`` degrees."""
    return _plate(theta_deg, np.diag([1.0, 1j]))


def hwp(theta_deg: float | np.ndarray) -> np.ndarray:
    """Half-wave plate(s) with fast axis at ``theta_deg`` degrees."""
    return _plate(theta_deg, np.diag([1.0, -1.0]))


def triple_to_unitary(angles: tuple[float, float, float] | np.ndarray) -> np.ndarray:
    """QWP(q_last) HWP(h) QWP(q_first) for plate angles (..., 3), shape (..., 2, 2).

    Formed entrywise from the product's unit quaternion (see ``decompose``).
    The plates' determinants i, -1 and i multiply to 1, so this is the plate
    product itself, with no phase dropped.
    """
    t = _radians(angles)
    if t.shape[-1:] != (3,):
        raise ValueError(f"expected plate triples (..., 3), got shape {t.shape}")
    a, h, c = np.moveaxis(t, -1, 0)
    d, s = c - a, a + c
    m = 2.0 * h - s
    w, y = np.cos(m) * np.cos(d), np.cos(m) * np.sin(d)
    x, z = -np.sin(m) * np.cos(s), np.sin(m) * np.sin(s)
    # U = w I - i (x sx + y sy + z sz): the (re, im) parts of its entries, row-major
    parts = np.stack([w, -z, -y, -x, y, -x, w, z], axis=-1)
    return parts.view(complex).reshape(w.shape + (2, 2))


def decompose(u: np.ndarray) -> np.ndarray:
    """Closed-form quarter-half-quarter angles (..., 3) realizing ``u`` (..., 2, 2) up to phase.

    Writing a = q_first, c = q_last, the product QWP(c) HWP(b) QWP(a) has
    determinant 1 and unit quaternion (w, x, y, z), with U = w I - i (x sx + y sy + z sz),

        ( cos(M) cos(d),  -sin(M) cos(s),  cos(M) sin(d),  sin(M) sin(s) )

    with d = c - a, s = a + c and M = 2b - s.  Its negation is the same gate
    up to phase; matching it against the target quaternion gives all three
    angles by inverse trigonometry; the two coordinate singularities (cos M = 0
    or sin M = 0) leave d or s free and are resolved by setting the free angle
    to zero.
    """
    if np.shape(u)[-2:] != (2, 2):
        raise ValueError(f"expected qubit gates (..., 2, 2), got shape {np.shape(u)}")
    u = require_unitary(u)
    det = det2(u)
    # Every anti-commuting gate has det = -1 exactly, on the branch cut of sqrt. So that the branch
    # does not follow the sign of Im det's rounding, a det within rounding of the negative real
    # axis is put on its upper side, where exact gates such as X, Y and Z already lie.
    on_axis = (det.real < 0.0) & (abs(det.imag) <= _DET_AXIS_TOL)
    u = u / np.sqrt(np.where(on_axis, det.real + 0j, det))[..., None, None]  # det 1
    w = (u[..., 0, 0] + u[..., 1, 1]).real / 2.0
    x = -(u[..., 0, 1] + u[..., 1, 0]).imag / 2.0
    y = (u[..., 1, 0] - u[..., 0, 1]).real / 2.0
    z = (u[..., 1, 1] - u[..., 0, 0]).imag / 2.0
    r1 = np.hypot(w, y)
    r2 = np.hypot(x, z)
    m = np.arctan2(r2, r1)  # in [0, pi/2]: cos M = r1, sin M = r2
    d = np.where(r1 > 1e-15, np.arctan2(-y, -w), 0.0)
    s = np.where(r2 > 1e-15, np.arctan2(-z, x), 0.0)
    return np.rad2deg(np.stack([(s - d) / 2.0, (m + s) / 2.0, (s + d) / 2.0], axis=-1))


def _load_table(name: str) -> AngleTable:
    """The packaged table ``name``: a header line, then rows of a name and whole plate triples."""
    lines = resources.files("qswitch.data").joinpath(name).read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    angles = np.array([row[1:] for row in rows], dtype=float).reshape(len(rows), -1, 3)
    read_only(angles)
    return AngleTable(index=tuple(row[0] for row in rows), angles=angles)


def load_pauli_table() -> AngleTable:
    """The bundled 4-row table of Pauli-gate waveplate angles."""
    return _load_table("pauli_table.csv")


@functools.cache
def load_random_pairs_table() -> AngleTable:
    """The bundled 50-row table of commuting / anti-commuting pair angles, parsed once per process."""
    return _load_table("random_pairs_table.csv")


@functools.cache
def table_gate_pairs() -> gates.PairStack:
    """Reconstruct the 100 labeled gate pairs from the packaged random-pairs table.

    Returns 50 commuting pairs followed by 50 anti-commuting pairs, named by
    table row, with labels asserted by ``classify_pair`` at the rounded-angle tolerance.
    Built once per process, and read-only.
    """
    table = load_random_pairs_table()
    unitaries = triple_to_unitary(table.angles)  # (row, triple, 2, 2)
    u1, u2 = (np.concatenate([unitaries[:, k], unitaries[:, k + 2]]) for k in (0, 1))
    port = np.repeat([0, 1], len(table))
    wrong = np.flatnonzero(gates.classify_pair(u1, u2, tol=TABLE_ANGLE_TOL) != PORT_VERDICTS[port])
    if wrong.size:
        k, name = wrong[0], ("commuting", "anti-commuting")[port[wrong[0]]]
        raise ValueError(f"row {table.index[k % len(table)]}: {name} pair fails classification")
    read_only(u1, u2, port)  # so setting a pair raises too
    return gates.PairStack(u1, u2, port, rows=table.index * 2)
