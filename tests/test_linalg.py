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
    frobenius_norm,
    require_state,
    require_unitary,
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

    def test_stacked_matches_per_pair_calls(self):
        rng = RandomSource(5)
        a = haar_random_unitaries(rng, 60)
        b = a * np.exp(0.3j) + 1e-9 * haar_random_unitaries(rng, 60)
        b[:3] = 0.0  # zero overlap: the phase defaults to 1
        stacked = frobenius_distance_up_to_phase(a.reshape(6, 10, 2, 2), b.reshape(6, 10, 2, 2))
        assert stacked.shape == (6, 10)
        assert np.array_equal(stacked.reshape(-1), [frobenius_distance_up_to_phase(x, y) for x, y in zip(a, b)])
        assert isinstance(frobenius_distance_up_to_phase(a[0], b[0]), float)

    def test_norm_matches_numpy_norm_of_one_matrix(self):
        x = haar_random_unitaries(RandomSource(6), 1000) * 3.7 - 0.2j
        assert np.array_equal(frobenius_norm(x), [np.linalg.norm(m) for m in x])


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


class TestRequireState:
    def test_accepts_stack(self):
        psis = np.array([[1, 0], [0, 1j], [0.6, 0.8]], dtype=complex)
        assert np.array_equal(require_state(psis, 2), psis)

    @pytest.mark.parametrize("bad", [[2.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]])
    def test_rejects_stack_with_one_bad_row(self, bad):
        psis = np.tile(np.array([1.0, 1.0]) / np.sqrt(2), (5, 1)).astype(complex)
        psis[3] = bad
        with pytest.raises(ValueError):
            require_state(psis, 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            require_state(np.ones((4, 3)) / np.sqrt(3), 2)

    def test_empty_stacks(self):
        assert require_state(np.empty((0, 2)), 2).shape == (0, 2)
        assert require_unitary(np.empty((0, 2, 2))).shape == (0, 2, 2)
        assert frobenius_norm(np.empty((0, 2, 2))).shape == (0,)


@pytest.mark.filterwarnings("error")
class TestHugeEntries:
    """Entries beyond any unitary's or normalized state's are rejected without a warning."""

    @pytest.mark.parametrize("value", [1e200, 1.7e308, np.inf, np.nan, 1.5])
    def test_require_unitary(self, value):
        with pytest.raises(ValueError, match="above 1"):
            require_unitary(np.full((2, 2), value))

    @pytest.mark.parametrize("value", [1e200, 1.7e308, np.inf, np.nan, 1.5])
    def test_require_state(self, value):
        with pytest.raises(ValueError, match="above 1"):
            require_state([value, 0.0])
