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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .linalg import frobenius_distance_up_to_phase, require_unitary
from .switch import Verdict

__all__ = [
    "WaveplateTriple",
    "AngleTableRow",
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


@dataclass(frozen=True)
class WaveplateTriple:
    """Fast-axis angles in degrees, listed in the order the photon meets them."""

    q_first: float
    h: float
    q_last: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.q_first, self.h, self.q_last)


@dataclass(frozen=True)
class AngleTableRow:
    index: str
    triples: tuple[WaveplateTriple, ...]


@dataclass
class AngleTable:
    rows: list[AngleTableRow]
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


def rotation(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def qwp(theta_deg: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at ``theta_deg`` degrees."""
    r = rotation(theta_deg)
    return r @ np.diag([1.0, 1j]) @ r.conj().T


def hwp(theta_deg: float) -> np.ndarray:
    """Half-wave plate with fast axis at ``theta_deg`` degrees."""
    r = rotation(theta_deg)
    return r @ np.diag([1.0, -1.0]) @ r.conj().T


def triple_to_unitary(t: WaveplateTriple | tuple[float, float, float]) -> np.ndarray:
    if isinstance(t, WaveplateTriple):
        t = t.as_tuple()
    q_first, h, q_last = t
    return qwp(q_last) @ hwp(h) @ qwp(q_first)


def _su2_quaternion(u: np.ndarray) -> tuple[float, float, float, float]:
    """(w, x, y, z) with U' = w I - i (x sx + y sy + z sz), det U' = 1."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    u = u / np.sqrt(det)
    w = (u[0, 0] + u[1, 1]).real / 2.0
    x = -(u[0, 1] + u[1, 0]).imag / 2.0
    y = (u[1, 0] - u[0, 1]).real / 2.0
    z = (u[1, 1] - u[0, 0]).imag / 2.0
    return float(w), float(x), float(y), float(z)


def decompose(u: np.ndarray) -> WaveplateTriple:
    """Closed-form quarter-half-quarter angles realizing ``u`` up to phase.

    Writing a = q_first, c = q_last, the product QWP(c) HWP(b) QWP(a) has
    unit quaternion

        ( -cos(M) cos(d),  sin(M) cos(s),  -cos(M) sin(d),  -sin(M) sin(s) )

    with d = c - a, s = a + c and M = 2b - s.  Matching against the target
    quaternion gives all three angles by inverse trigonometry; the two
    coordinate singularities (cos M = 0 or sin M = 0) leave d or s free and
    are resolved by setting the free angle to zero.
    """
    u = require_unitary(u)
    w, x, y, z = _su2_quaternion(u)
    r1 = float(np.hypot(w, y))
    r2 = float(np.hypot(x, z))
    m = float(np.arctan2(r2, r1))  # in [0, pi/2]: cos M = r1, sin M = r2
    d = float(np.arctan2(-y, -w)) if r1 > 1e-15 else 0.0
    s = float(np.arctan2(-z, x)) if r2 > 1e-15 else 0.0
    a = (s - d) / 2.0
    c = (s + d) / 2.0
    b = (m + s) / 2.0
    return WaveplateTriple(
        q_first=float(np.rad2deg(a)), h=float(np.rad2deg(b)), q_last=float(np.rad2deg(c))
    )


def _parse_triples(values: list[str], row_label: str, diagnostics: list[str]) -> tuple[WaveplateTriple, ...]:
    angles = []
    for v in values:
        angles.append(float(v))
    triples = []
    for k in range(0, len(angles), 3):
        q1, h, q2 = angles[k : k + 3]
        if not -90.0 <= h < 180.0:
            # e.g. half-wave angles printed above 180 deg: equivalent mod 180
            diagnostics.append(
                f"row {row_label}: half-wave angle {h} outside principal range (equivalent mod 180)"
            )
        triples.append(WaveplateTriple(q_first=q1, h=h, q_last=q2))
    return tuple(triples)


def load_angle_table(source: str) -> AngleTable:
    """Parse an angle table from CSV text.

    Two layouts are accepted: 7 columns (gate name + two triples, one gate
    implemented with separate settings for each slot) and 13 columns (index +
    four triples: a commuting pair followed by an anti-commuting pair).
    """
    diagnostics: list[str] = []
    rows: list[AngleTableRow] = []
    reader = csv.reader(io.StringIO(source))
    for line_no, record in enumerate(reader):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if line_no == 0 and not _is_numeric(record[1]):
            continue  # header
        try:
            if len(record) == 7:
                triples = _parse_triples(record[1:7], record[0], diagnostics)
                rows.append(AngleTableRow(index=record[0], triples=triples))
            elif len(record) == 13:
                c_triples = _parse_triples(record[1:7], record[0], diagnostics)
                a_triples = _parse_triples(record[7:13], record[0], diagnostics)
                rows.append(AngleTableRow(index=record[0], triples=c_triples + a_triples))
            else:
                raise ValueError(f"expected 7 or 13 columns, got {len(record)}")
        except ValueError as exc:
            raise ValueError(f"row {line_no}: {exc}") from exc
    return AngleTable(rows=rows, diagnostics=diagnostics)


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
    pairs: list[GatePair] = []
    anti: list[GatePair] = []
    for row in table.rows:
        if len(row.triples) != 4:
            raise ValueError(f"row {row.index}: expected 4 triples, got {len(row.triples)}")
        c1, c2, a1, a2 = (triple_to_unitary(t) for t in row.triples)
        if classify_pair(c1, c2, tol=TABLE_ANGLE_TOL) is not Verdict.COMMUTE:
            raise ValueError(f"row {row.index}: commuting pair fails classification")
        if classify_pair(a1, a2, tol=TABLE_ANGLE_TOL) is not Verdict.ANTICOMMUTE:
            raise ValueError(f"row {row.index}: anti-commuting pair fails classification")
        pairs.append(GatePair(u1=c1, u2=c2, label=Verdict.COMMUTE, seed_record={"table_row": row.index}))
        anti.append(GatePair(u1=a1, u2=a2, label=Verdict.ANTICOMMUTE, seed_record={"table_row": row.index}))
    return pairs + anti
