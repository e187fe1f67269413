import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch import waveplates
from qswitch.gates import RandomSource, classify_pair, haar_random_unitaries, sample_pairs
from qswitch.linalg import HAD, ID2, SX, SY, SZ, det2, frobenius_distance_up_to_phase as fdist
from qswitch.switch import Verdict, exit_probabilities
from qswitch.waveplates import (
    TABLE_ANGLE_TOL,
    AngleTable,
    decompose,
    hwp,
    load_pauli_table,
    load_random_pairs_table,
    qwp,
    table_gate_pairs,
    triple_to_unitary,
)

PAULI_BY_NAME = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}


class TestJonesMatrices:
    def test_qwp_zero(self):
        assert np.allclose(qwp(0), np.diag([1, 1j]))

    def test_qwp_ninety_swaps_axes(self):
        assert np.allclose(qwp(90), np.diag([1j, 1]))

    def test_two_quarters_make_a_half(self):
        for theta in (0, 17.3, 45, 80):
            assert fdist(qwp(theta) @ qwp(theta), hwp(theta)) <= 1e-12

    def test_hwp_zero_is_sz(self):
        assert np.allclose(hwp(0), SZ)

    def test_hwp_45_is_sx(self):
        assert fdist(hwp(45), SX) <= 1e-12

    def test_hwp_225_is_hadamard(self):
        assert fdist(hwp(22.5), HAD) <= 1e-12


class TestTripleToUnitary:
    def test_all_zero_is_identity(self):
        assert fdist(triple_to_unitary((0, 0, 0)), ID2) <= 1e-12

    def test_pauli_x_row(self):
        assert fdist(triple_to_unitary((0, 45, 0)), SX) <= 1e-12

    def test_pauli_y_row(self):
        assert fdist(triple_to_unitary((90, 45, 0)), SY) <= 1e-12

    def test_angle_periodicity(self):
        t = (12.0, 31.0, -40.0)
        base = triple_to_unitary(t)
        shifted = triple_to_unitary((t[0] + 180, t[1] + 180, t[2] - 180))
        assert fdist(base, shifted) <= 1e-12

    def test_rejects_a_last_axis_other_than_three(self):
        for angles in ([1.0, 2.0], np.zeros((5, 4))):
            with pytest.raises(ValueError, match=r"plate triples \(\.\.\., 3\)"):
                triple_to_unitary(angles)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("plate, angles", [
    (qwp, lambda t: t),
    (hwp, lambda t: [0.0, t]),
    (triple_to_unitary, lambda t: [t, 0.0, 0.0]),
    (triple_to_unitary, lambda t: [[0.0, 0.0, 0.0], [0.0, t, 0.0]]),
], ids=["qwp", "hwp-stack", "triple", "triple-stack"])
def test_non_finite_angle_raises(plate, angles, bad):
    # pyproject turns a RuntimeWarning into an error, so the check must come before any arithmetic
    with pytest.raises(ValueError, match="plate angles must be finite"):
        plate(angles(bad))


class TestClosedFormTriples:
    """``triple_to_unitary`` is the plate product itself, not only up to phase."""

    def plate_product(self, angles):
        return qwp(angles[..., 2]) @ hwp(angles[..., 1]) @ qwp(angles[..., 0])

    def test_equals_the_plate_product(self):
        angles = np.random.default_rng(10).uniform(-360.0, 360.0, (20_000, 3))
        u = triple_to_unitary(angles)
        assert np.abs(u - self.plate_product(angles)).max() <= 1e-14
        assert np.abs(np.linalg.det(u) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("triple", [(0, 0, 0), (0, 45, 0), (90, 45, 0), (10, 20, 30), (-360, 360, 180)])
    def test_one_triple(self, triple):
        u = triple_to_unitary(triple)
        assert u.shape == (2, 2)
        assert np.abs(u - self.plate_product(np.array(triple, dtype=float))).max() <= 1e-14

    def test_quaternion_of_the_decompose_docstring(self):
        a, b, c = np.deg2rad([10.0, 20.0, 30.0])
        d, s, m = c - a, a + c, 2 * b - (a + c)
        w, y = np.cos(m) * np.cos(d), np.cos(m) * np.sin(d)
        x, z = -np.sin(m) * np.cos(s), np.sin(m) * np.sin(s)
        u = w * ID2 - 1j * (x * SX + y * SY + z * SZ)
        assert np.abs(self.plate_product(np.array([10.0, 20.0, 30.0])) - u).max() <= 1e-14
        assert fdist(triple_to_unitary(decompose(u)), u) <= 1e-12


class TestDecompose:
    def test_identity(self):
        t = decompose(ID2)
        assert fdist(triple_to_unitary(t), ID2) <= 1e-8

    def test_sy(self):
        t = decompose(SY)
        assert fdist(triple_to_unitary(t), SY) <= 1e-8

    def test_circular_basis_singularity(self):
        # gates diagonal in the circular basis hit the coordinate singularity
        u = qwp(45) @ np.diag([1, np.exp(0.6j)]) @ qwp(45).conj().T
        assert fdist(triple_to_unitary(decompose(u)), u) <= 1e-8

    def test_haar_round_trip(self):
        us = haar_random_unitaries(RandomSource(21), 10_000)
        assert fdist(triple_to_unitary(decompose(us)), us).max() <= 1e-8

    @pytest.mark.parametrize("im_det", [1e-17, -1e-17, 0.0, -0.0])
    def test_branch_on_the_negative_real_axis(self, monkeypatch, im_det):
        # every anti-commuting gate has det = -1 exactly, so the sign of Im det is rounding;
        # it must not pick the branch of sqrt(det), which moves h by 90 deg
        pairs = sample_pairs(RandomSource(3), 1, 50)
        us = np.concatenate([pairs.u1[1:], pairs.u2[1:], [SX, SY, SZ]])
        expected = decompose(us)

        def on_the_axis(u):
            det = det2(u).real.astype(complex)
            det.imag = im_det
            return det

        monkeypatch.setattr(waveplates, "det2", on_the_axis)
        assert np.abs(decompose(us) - expected).max() <= 1e-9
        assert fdist(triple_to_unitary(expected), us).max() <= 1e-12

    @pytest.mark.parametrize("u", [np.eye(4), np.kron(ID2, SX), np.eye(1), np.eye(3)[None], ID2[0], 1.0])
    def test_rejects_non_qubit_gates(self, u):
        # a 4x4 unitary used to compile to a qubit triple, e.g. I (x) X to the identity
        with pytest.raises(ValueError, match="qubit gates"):
            decompose(u)

    @given(
        st.sampled_from(["cos M = 0", "sin M = 0"]),
        st.one_of(st.just(0.0), st.floats(1e-300, 1e-6)),
        st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
    )
    def test_round_trip_near_singularities(self, where, eps, alpha, beta, phase):
        # the unit quaternion (w, x, y, z) of U = w I - i (x sx + y sy + z sz) has
        # cos M = |(w, y)| and sin M = |(x, z)|; put one of them at eps
        small, large = eps * np.array([np.cos(alpha), np.sin(alpha)]), np.array([np.cos(beta), np.sin(beta)])
        large *= np.sqrt(1.0 - eps**2)
        (w, y), (x, z) = (small, large) if where == "cos M = 0" else (large, small)
        u = np.exp(1j * phase) * (w * ID2 - 1j * (x * SX + y * SY + z * SZ))
        angles = decompose(u)
        assert angles.shape == (3,) and np.isfinite(angles).all()
        assert fdist(triple_to_unitary(angles), u) <= 1e-8


class TestStackedCalls:
    """A stacked call gives bit for bit (signed zeros included) what the per-item calls give."""

    @staticmethod
    def assert_same_bits(stacked, items):
        items = np.array(items)
        assert stacked.shape == items.shape and stacked.tobytes() == items.tobytes()

    def test_plates(self):
        thetas = np.concatenate([[0.0, -0.0, 45.0, 90.0, -180.0],
                                 RandomSource(1).generator.uniform(-360.0, 360.0, 64)])
        for plate in (qwp, hwp):
            self.assert_same_bits(plate(thetas), [plate(t) for t in thetas])

    def test_triple_to_unitary(self):
        angles = RandomSource(2).generator.uniform(-360.0, 360.0, (8, 8, 3))
        angles[0] = [[0.0, 45.0, 0.0], [90.0, 45.0, 0.0], [-0.0, 0.0, 0.0], [90.0, 0.0, 90.0]] * 2
        stacked = triple_to_unitary(angles)
        assert stacked.shape == (8, 8, 2, 2)
        self.assert_same_bits(stacked.reshape(-1, 2, 2), [triple_to_unitary(t) for t in angles.reshape(-1, 3)])

    def test_decompose(self):
        us = np.concatenate([[ID2, SX, SY, SZ, HAD, -ID2, 1j * SX, SY @ SZ],
                             haar_random_unitaries(RandomSource(3), 56)])
        stacked = decompose(us.reshape(8, 8, 2, 2))
        assert stacked.shape == (8, 8, 3)
        self.assert_same_bits(stacked.reshape(-1, 3), [decompose(u) for u in us])

    def test_decompose_empty_stack(self):
        assert decompose(np.empty((0, 2, 2))).shape == (0, 3)


def test_packaged_tables_load_exactly_with_their_row_names():
    pauli, pairs = load_pauli_table(), load_random_pairs_table()
    assert pauli.index == ("I", "X", "Y", "Z")
    assert pairs.index == tuple(str(k) for k in range(1, 51))
    assert pairs.angles[0, 0].tolist() == [25.61, 5.20, 24.38]
    assert np.isfinite(pauli.angles).all() and np.isfinite(pairs.angles).all()


class TestPauliTable:
    def test_rows_reconstruct_their_gate(self):
        table = load_pauli_table()
        assert len(table) == 4 and table.angles.shape == (4, 2, 3)
        targets = np.array([[PAULI_BY_NAME[name]] * 2 for name in table.index])
        assert fdist(triple_to_unitary(table.angles), targets).max() <= 1e-9


class TestRandomPairsTable:
    def test_shape(self):
        table = load_random_pairs_table()
        assert len(table) == 50
        assert table.angles.shape == (50, 4, 3)

    def test_classification_at_loose_tolerance(self):
        gates = triple_to_unitary(load_random_pairs_table().angles)
        commuting = classify_pair(gates[:, 0], gates[:, 1], tol=TABLE_ANGLE_TOL)
        anticommuting = classify_pair(gates[:, 2], gates[:, 3], tol=TABLE_ANGLE_TOL)
        assert all(v is Verdict.COMMUTE for v in commuting)
        assert all(v is Verdict.ANTICOMMUTE for v in anticommuting)

    def test_table_gate_pairs_labels_and_success(self):
        pairs = table_gate_pairs()
        assert len(pairs) == 100
        out = exit_probabilities(pairs.u1, pairs.u2)
        assert np.where(pairs.port == 0, out.p0, out.p1).min() >= 1 - 1e-3

    @pytest.mark.parametrize("row, source, target, message", [
        (5, slice(0, 2), slice(2, 4), "row 6: anti-commuting pair"),
        (20, slice(2, 4), slice(0, 2), "row 21: commuting pair"),
    ])
    def test_mislabelled_row_is_named(self, monkeypatch, row, source, target, message):
        table = load_random_pairs_table()
        angles = table.angles.copy()
        angles[row, target] = angles[row, source]
        monkeypatch.setattr(waveplates, "load_random_pairs_table", lambda: AngleTable(table.index, angles))
        with pytest.raises(ValueError, match=message):
            table_gate_pairs.__wrapped__()


def _load(text):
    """``_load_table`` on ``text`` read in place of a packaged file."""
    package = SimpleNamespace(joinpath=lambda name: SimpleNamespace(read_text=lambda: text))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(waveplates, "resources", SimpleNamespace(files=lambda name: package))
        return waveplates._load_table("table.csv")


class TestLoadAngleTable:
    """The fixed-layout loader: a header line, then a name and whole plate triples per row."""

    def test_header_skipped(self):
        table = _load("gate,q1,h1,q2,q3,h2,q4\nI,0,0,0,0,0,0\n")
        assert table.index == ("I",)
        assert table.angles.shape == (1, 2, 3)
        assert not table.angles.flags.writeable

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="reshape"):
            _load("header\n1,2,3\n")

    def test_non_numeric_angle(self):
        with pytest.raises(ValueError, match="oops"):
            _load("header\nI,0,0,0,0,0,0\nX,0,oops,0,0,0,0\n")

    def test_angles_preserved_exactly(self):
        table = _load("header\n1,25.61,5.20,24.38,24.97,25.80,25.02,1,2,3,4,5,6\n")
        assert table.index == ("1",)
        assert table.angles[0, 0].tolist() == [25.61, 5.20, 24.38]

    @pytest.mark.parametrize("source", [
        "header\nI,0,0,0,0,0,0\n1,0,0,0,0,0,0,0,0,0,0,0,0\n",
        "header\n1,0,0,0,0,0,0,0,0,0,0,0,0\nI,0,0,0,0,0,0\n",
    ], ids=["7-then-13", "13-then-7"])
    def test_mixed_layouts(self, source):
        with pytest.raises(ValueError, match="inhomogeneous"):
            _load(source)

    @pytest.mark.parametrize("source", ["abc\n"], ids=["one-field"])
    def test_malformed_first_line(self, source):
        # the first line is always the header, so a file of one line holds no rows
        with pytest.raises(ValueError):
            _load(source)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_angle(self, monkeypatch, bad):
        # the loader keeps the angle; the plates reject it where the table is used
        row = ",".join(["1", bad] + ["0"] * 11)
        table = _load(f"header\n{row}\n")
        assert not np.isfinite(table.angles[0, 0, 0])
        monkeypatch.setattr(waveplates, "load_random_pairs_table", lambda: table)
        with pytest.raises(ValueError, match="plate angles must be finite"):
            table_gate_pairs.__wrapped__()

    @given(st.lists(st.lists(st.one_of(
        st.text(max_size=8),
        st.floats().map(repr),
        st.sampled_from(["0", "45", "nan", "inf", "", " "]),
    ), max_size=14), max_size=4))
    def test_arbitrary_rows_parse_or_raise_value_error(self, rows):
        buf = io.StringIO()
        csv.writer(buf).writerows([["header"], *rows])
        try:
            table = _load(buf.getvalue())
        except ValueError:
            return
        assert len(table.angles) == len(table.index)
        assert table.angles.ndim == 3 and table.angles.shape[2] == 3
