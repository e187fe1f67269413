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
