import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch.gates import RandomSource, classify_pair, haar_random_unitaries
from qswitch.linalg import HAD, ID2, SX, SY, SZ, frobenius_distance_up_to_phase as fdist
from qswitch.switch import Verdict, exit_probabilities
from qswitch.waveplates import (
    TABLE_ANGLE_TOL,
    WaveplateTriple,
    decompose,
    hwp,
    load_angle_table,
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
        rng = RandomSource(21)
        for u in haar_random_unitaries(rng, 10_000):
            t = decompose(u)
            assert fdist(triple_to_unitary(t), u) <= 1e-8


class TestPauliTable:
    def test_rows_reconstruct_their_gate(self):
        table = load_pauli_table()
        assert len(table) == 4
        for row in table.rows:
            target = PAULI_BY_NAME[row.index]
            for triple in row.triples:
                assert fdist(triple_to_unitary(triple), target) <= 1e-9


class TestRandomPairsTable:
    def test_shape(self):
        table = load_random_pairs_table()
        assert len(table) == 50
        assert all(len(row.triples) == 4 for row in table.rows)

    def test_half_wave_angle_diagnostics(self):
        table = load_random_pairs_table()
        flagged = "\n".join(table.diagnostics)
        assert "row 6" in flagged and "182.2" in flagged
        assert "row 21" in flagged and "187.37" in flagged

    def test_classification_at_loose_tolerance(self):
        for row in load_random_pairs_table().rows:
            c1, c2, a1, a2 = (triple_to_unitary(t) for t in row.triples)
            assert classify_pair(c1, c2, tol=TABLE_ANGLE_TOL) is Verdict.COMMUTE
            assert classify_pair(a1, a2, tol=TABLE_ANGLE_TOL) is Verdict.ANTICOMMUTE

    def test_table_gate_pairs_labels_and_success(self):
        pairs = table_gate_pairs()
        assert len(pairs) == 100
        for pair in pairs:
            out = exit_probabilities(pair.u1, pair.u2)
            correct = out.p0 if pair.label is Verdict.COMMUTE else out.p1
            assert correct >= 1 - 1e-3


class TestLoadAngleTable:
    def test_empty_input(self):
        table = load_angle_table("")
        assert len(table) == 0
        assert table.diagnostics == []

    def test_header_skipped(self):
        table = load_angle_table("gate,q1,h1,q2,q3,h2,q4\nI,0,0,0,0,0,0\n")
        assert len(table) == 1

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="row 0"):
            load_angle_table("1,2,3\n")

    def test_non_numeric_angle(self):
        with pytest.raises(ValueError, match="row 1"):
            load_angle_table("I,0,0,0,0,0,0\nX,0,oops,0,0,0,0\n")

    def test_angles_preserved_exactly(self):
        table = load_angle_table("1,25.61,5.20,24.38,24.97,25.80,25.02,1,2,3,4,5,6\n")
        assert table.rows[0].triples[0] == WaveplateTriple(25.61, 5.20, 24.38)

    @pytest.mark.parametrize("source, where", [
        ("abc\n", "row 0"),
        ("x" * 200_000 + "\n", "CSV"),  # above the csv module's field size limit
    ], ids=["one-field", "over-field-limit"])
    def test_malformed_first_line(self, source, where):
        with pytest.raises(ValueError, match=where):
            load_angle_table(source)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_angle(self, bad):
        with pytest.raises(ValueError, match="row 1"):
            load_angle_table(f"I,0,0,0,0,0,0\nX,{bad},0,0,0,0,0\n")

    @given(st.lists(st.lists(st.one_of(
        st.text(max_size=8),
        st.floats().map(repr),
        st.sampled_from(["0", "45", "nan", "inf", "", " "]),
    ), max_size=14), max_size=4))
    def test_arbitrary_rows_parse_or_raise_value_error(self, rows):
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        try:
            table = load_angle_table(buf.getvalue())
        except ValueError:
            return
        for row in table.rows:
            assert len(row.triples) in (2, 4)
            assert all(np.isfinite(t.as_tuple()).all() for t in row.triples)
