import numpy as np
import pytest

from qswitch.gates import RandomSource, haar_random_unitaries
from qswitch.linalg import (
    HAD,
    ID2,
    SX,
    SY,
    SZ,
    choi,
    frobenius_distance_up_to_phase,
    partial_trace,
    tensor,
)


class TestTensor:
    def test_identity(self):
        assert np.allclose(tensor(ID2, ID2), np.eye(4))

    def test_sx_sz_entries(self):
        m = tensor(SX, SZ)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        assert np.allclose(m, expected)

    def test_diagonal_product(self):
        m = tensor(np.diag([1, 1j]), np.diag([1, -1]))
        assert np.allclose(m, np.diag([1, -1, 1j, -1j]))

    def test_associative(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.abs(left - right).max() <= 1e-13


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        reduced = partial_trace(tensor(a, b), [2, 2], {1})
        assert np.linalg.norm(reduced - a * np.trace(b)) < 1e-12
        reduced = partial_trace(tensor(a, b), [2, 2], {0})
        assert np.linalg.norm(reduced - b * np.trace(a)) < 1e-12

    def test_identity(self):
        assert np.allclose(partial_trace(np.eye(4), [2, 2], {0}), 2 * np.eye(2))

    def test_full_trace(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = partial_trace(m, [2, 2, 2], {0, 1, 2})
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.trace(m)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        out = partial_trace(m, [2, 3, 2], {1})
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], {0})


class TestPhaseDistance:
    def test_global_phase_removed(self):
        assert frobenius_distance_up_to_phase(SX, 1j * SX) == 0.0
        assert frobenius_distance_up_to_phase(SX, SX) == 0.0

    def test_orthogonal_paulis(self):
        assert frobenius_distance_up_to_phase(SX, SZ) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d1 = frobenius_distance_up_to_phase(a, b)
        d2 = frobenius_distance_up_to_phase(b, a)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance_up_to_phase(SX, np.eye(4))


class TestChoi:
    def test_identity_choi(self):
        c = choi(ID2)
        phi = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(c, np.outer(phi, phi))
        assert np.trace(c) == pytest.approx(2.0)

    def test_sx_choi(self):
        c = choi(SX)
        vec = np.array([0, 1, 1, 0], dtype=complex)
        assert np.allclose(c, np.outer(vec, vec))

    def test_phase_invariant(self):
        u = HAD
        assert np.allclose(choi(u), choi(np.exp(0.7j) * u))

    def test_random_unitaries_psd_rank1(self):
        rng = RandomSource(11)
        for u in haar_random_unitaries(rng, 200):
            w = np.linalg.eigvalsh(choi(u))
            assert w[0] >= -1e-10
            assert w[-2] <= 1e-9  # rank 1
            assert np.sum(w) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            choi(np.array([[1, 0], [0, 2]], dtype=complex))
