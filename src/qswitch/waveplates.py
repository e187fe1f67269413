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

import csv
import io
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .linalg import require_unitary
from .switch import Verdict

__all__ = [
    "AngleTable",
    "qwp",
    "hwp",
    "triple_to_unitary",
    "decompose",
    "load_angle_table",
    "load_pauli_table",
    "load_random_pairs_table",
    "table_gate_pairs",
    "TABLE_ANGLE_TOL",
]

# classification tolerance for gates rebuilt from angles printed to 0.01 deg
TABLE_ANGLE_TOL = 0.05


@dataclass
class AngleTable:
    """Rows of plate triples: ``angles`` is (rows, triples, 3) in degrees, each
    triple ordered (q_first, h, q_last) as the photon meets the plates."""

    index: tuple[str, ...]
    angles: np.ndarray
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.index)


def _plate(theta_deg: float | np.ndarray, retardance: np.ndarray) -> np.ndarray:
    """R(t) diag(retardance) R(-t) for each angle of a stack, shape (..., 2, 2)."""
    t = np.deg2rad(np.asarray(theta_deg, dtype=float))
    c, s = np.cos(t), np.sin(t)
    r = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2).astype(complex)
    # one product over all rows of the stack: each entry is summed as in r @ retardance
    return (r.reshape(-1, 2) @ retardance).reshape(r.shape) @ np.swapaxes(r, -2, -1).conj()


def qwp(theta_deg: float | np.ndarray) -> np.ndarray:
    """Quarter-wave plate(s) with fast axis at ``theta_deg`` degrees."""
    return _plate(theta_deg, np.diag([1.0, 1j]))


def hwp(theta_deg: float | np.ndarray) -> np.ndarray:
    """Half-wave plate(s) with fast axis at ``theta_deg`` degrees."""
    return _plate(theta_deg, np.diag([1.0, -1.0]))


def triple_to_unitary(angles: tuple[float, float, float] | np.ndarray) -> np.ndarray:
    """QWP(q_last) HWP(h) QWP(q_first) for plate angles (..., 3), shape (..., 2, 2)."""
    angles = np.asarray(angles, dtype=float)
    quarters = qwp(angles[..., ::2])  # (..., 2, 2, 2): q_first, q_last
    return quarters[..., 1, :, :] @ hwp(angles[..., 1]) @ quarters[..., 0, :, :]


def decompose(u: np.ndarray) -> np.ndarray:
    """Closed-form quarter-half-quarter angles (..., 3) realizing ``u`` (..., 2, 2) up to phase.

    Writing a = q_first, c = q_last, the product QWP(c) HWP(b) QWP(a) has
    unit quaternion (w, x, y, z), with U = w I - i (x sx + y sy + z sz),

        ( -cos(M) cos(d),  sin(M) cos(s),  -cos(M) sin(d),  -sin(M) sin(s) )

    with d = c - a, s = a + c and M = 2b - s.  Matching against the target
    quaternion gives all three angles by inverse trigonometry; the two
    coordinate singularities (cos M = 0 or sin M = 0) leave d or s free and
    are resolved by setting the free angle to zero.
    """
    u = require_unitary(u)
    u = u / np.sqrt(np.linalg.det(u))[..., None, None]  # det 1
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


def load_angle_table(source: str) -> AngleTable:
    """Parse an angle table from CSV text.

    Two layouts are accepted, one per table: 7 columns (gate name + two
    triples, one gate implemented with separate settings for each slot) and
    13 columns (index + four triples: a commuting pair followed by an
    anti-commuting pair).
    """
    try:
        records = list(csv.reader(io.StringIO(source)))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from exc
    index: list[str] = []
    values: list[list[float]] = []
    for line_no, record in enumerate(records):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if line_no == 0 and len(record) > 1 and not _is_numeric(record[1]):
            continue  # header
        try:
            if len(record) not in (7, 13):
                raise ValueError(f"expected 7 or 13 columns, got {len(record)}")
            if values and len(record) != 1 + len(values[0]):
                raise ValueError(f"{len(record)} columns where earlier rows have {1 + len(values[0])}")
            row = [float(v) for v in record[1:]]
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite angle in {record[1:]}")
        except ValueError as exc:
            raise ValueError(f"row {line_no}: {exc}") from exc
        index.append(record[0])
        values.append(row)
    angles = np.array(values, dtype=float).reshape(len(values), len(values[0]) // 3 if values else 0, 3)
    # e.g. half-wave angles printed above 180 deg: equivalent mod 180
    h = angles[..., 1]
    diagnostics = [
        f"row {index[k]}: half-wave angle {h[k, j]} outside principal range (equivalent mod 180)"
        for k, j in zip(*np.nonzero((h < -90.0) | (h >= 180.0)))
    ]
    return AngleTable(index=tuple(index), angles=angles, diagnostics=diagnostics)


def _is_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _read_data(name: str) -> str:
    return resources.files("qswitch.data").joinpath(name).read_text()


def load_pauli_table() -> AngleTable:
    """The bundled 4-row table of Pauli-gate waveplate angles."""
    return load_angle_table(_read_data("pauli_table.csv"))


def load_random_pairs_table() -> AngleTable:
    """The bundled 50-row table of commuting / anti-commuting pair angles."""
    return load_angle_table(_read_data("random_pairs_table.csv"))


def table_gate_pairs(table: AngleTable | None = None):
    """Reconstruct the 100 labeled gate pairs from the random-pairs table.

    Returns 50 commuting pairs followed by 50 anti-commuting pairs.  Labels
    are asserted against ``classify_pair`` at the rounded-angle tolerance.
    """
    from .gates import GatePair, classify_pair

    if table is None:
        table = load_random_pairs_table()
    if table.angles.shape[1] != 4:
        raise ValueError(f"expected 4 triples per row, got {table.angles.shape[1]}")
    gates = triple_to_unitary(table.angles)  # (row, triple, 2, 2)
    pairs: list[GatePair] = []
    for label, name, k in ((Verdict.COMMUTE, "commuting", 0), (Verdict.ANTICOMMUTE, "anti-commuting", 2)):
        u1, u2 = gates[:, k], gates[:, k + 1]
        wrong = np.flatnonzero(classify_pair(u1, u2, tol=TABLE_ANGLE_TOL) != np.array(label, dtype=object))
        if wrong.size:
            raise ValueError(f"row {table.index[wrong[0]]}: {name} pair fails classification")
        pairs += [GatePair(u1=a, u2=b, label=label, seed_record={"table_row": row})
                  for a, b, row in zip(u1, u2, table.index)]
    return pairs
