import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch.gates import RandomSource, haar_random_unitaries
from qswitch.linalg import (
    HAD,
    ID2,
    PAULI_GATES,
    SX,
    SY,
    SZ,
    UNITARY_TOL,
    both_orders,
    det2,
    frobenius_distance_up_to_phase,
    frobenius_norm,
    require_state,
    require_unitary,
    require_unitary_pair,
    times_sy,
    times_sz,
)

from oracles import choi, tensor


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

    @pytest.mark.parametrize("value", [1e155, 1e200, 1.7e308, np.inf, np.nan, 1.5])
    def test_require_unitary(self, value):
        with pytest.raises(ValueError, match="above 1"):
            require_unitary(np.full((2, 2), value))

    @pytest.mark.parametrize("value", [1e155, 1e200, np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])
    def test_require_unitary_stack(self, value):
        # one entry of one matrix: its square overflows, or is not a number, in the stack's sum
        u = haar_random_unitaries(RandomSource(2), 6).reshape(2, 3, 2, 2)
        u[1, 2, 0, 1] = value
        with pytest.raises(ValueError, match="above 1 in modulus"):
            require_unitary(u)

    @pytest.mark.parametrize("value", [1e200, 1.7e308, np.inf, np.nan, 1.5])
    def test_require_state(self, value):
        with pytest.raises(ValueError, match="above 1"):
            require_state([value, 0.0])


@pytest.mark.parametrize("gate", [HAD, *PAULI_GATES.values()], ids=["H", *PAULI_GATES])
def test_gate_constants_are_read_only(gate):
    with pytest.raises(ValueError, match="read-only"):
        gate[0, 0] = 0.5
    assert require_unitary(gate) is gate  # handed back as is, so a write would reach every caller


def formed_deviation(check, *gates):
    """The deviation U U^dag - I that ``check`` forms on its stack (..., n, n), as rows
    (..., n*n): the array of its second whole-stack sum, recorded whether or not the check
    passes; None when its entry bound rejects the stack before any Gram product."""
    with mock.patch.object(np, "vdot", wraps=np.vdot) as vdot:
        rejection(check, *gates)
    if vdot.call_count < 2:
        return None
    dev, other = vdot.call_args_list[1].args
    assert other is dev and vdot.call_count == 2
    return dev.reshape(dev.shape[:-2] + (dev.shape[-1] ** 2,))  # C order: the same bytes


def rejection(check, *args):
    """The message of the ValueError that ``check`` raises on ``args``; None if it passes."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def max_row_norm_sq(dev):
    """Largest squared norm over the rows (..., k) of a stack; 0.0 if it is empty."""
    return np.maximum.reduce(np.vecdot(dev, dev).real, axis=None, initial=0.0)


def reference_unitary_residual(u):
    """Largest ||U U^dag - I||_F over a stack, written out one matrix at a time."""
    mats = u.reshape((-1,) + u.shape[-2:])
    return max(np.linalg.norm(m @ m.conj().T - np.eye(len(m))) for m in mats)


def reference_state_deviation(psi):
    """Largest | ||psi|| - 1 | over a stack, written out one state at a time."""
    return max(abs(np.linalg.norm(v) - 1.0) for v in psi.reshape(-1, psi.shape[-1]))


def complex_normal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def perturbed_unitaries(seed, dim, count, scale):
    """``count`` random dim x dim unitaries, each moved by ``scale`` in Frobenius norm."""
    gen = np.random.default_rng(seed)
    u = np.linalg.qr(complex_normal(gen, (count, dim, dim))).Q
    e = complex_normal(gen, u.shape)
    return u + scale * e / np.linalg.norm(e, axis=(-2, -1), keepdims=True)


def perturbed_states(seed, dim, count, scale):
    """``count`` random unit vectors of length dim, each moved by ``scale`` in norm."""
    gen = np.random.default_rng(seed)
    psi, e = (x / np.linalg.norm(x, axis=-1, keepdims=True) for x in complex_normal(gen, (2, count, dim)))
    return psi + scale * e


def layouts(x):
    """``x`` itself, the same values in transposed and Fortran memory, its
    reversed-stride view, and a read-only copy."""
    frozen = x.copy()
    frozen.flags.writeable = False
    transposed = np.swapaxes(np.swapaxes(x, -2, -1).copy(), -2, -1)
    return [x, transposed, np.asfortranarray(x), x[::-1, ..., ::-1], frozen]


def check_validator(validate, reference, x):
    """``validate`` accepts ``x`` exactly when the reference is within UNITARY_TOL,
    reports the reference's value when it rejects, and never writes to ``x``."""
    before = x.copy()
    expected = reference(x)
    if expected <= UNITARY_TOL - 1e-15:
        assert validate(x) is x
    elif expected > UNITARY_TOL + 1e-15:
        with pytest.raises(ValueError) as exc:
            validate(x)
        if "above 1" not in str(exc.value):  # the entry bound may reject first
            value = float(re.search(r" ([-+.e\d]+)\)$", str(exc.value)).group(1))
            assert value == pytest.approx(expected, rel=1e-3)  # printed to 4 digits
    assert np.array_equal(x, before)


# Perturbations from 1e-12 to 1e-8 in size, on both sides of UNITARY_TOL
SCALES = st.floats(-12.0, -8.0).map(lambda e: 10.0**e)
SEEDS = st.integers(0, 2**32 - 1)


class TestStackedResidual:
    """``require_unitary`` first bounds the stack's summed squared residual; a stack
    that fails that sum is decided matrix by matrix, as each matrix alone would be."""

    def test_sum_above_the_tolerance_with_every_matrix_inside(self):
        u = perturbed_unitaries(0, 2, 1000, 5e-12)
        dev = formed_deviation(require_unitary, u)
        assert max_row_norm_sq(dev) <= (UNITARY_TOL / 4) ** 2 < UNITARY_TOL**2 < np.vdot(dev, dev).real
        assert require_unitary(u) is u

    def test_one_matrix_outside_the_tolerance(self):
        u = perturbed_unitaries(0, 2, 1000, 5e-12)
        u[500] = perturbed_unitaries(1, 2, 1, 1e-9)[0]
        check_validator(require_unitary, reference_unitary_residual, u)
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(u)

    @pytest.mark.parametrize("modulus, accepted", [(1.0 + 8e-12, True), (1.0 + 4e-11, True), (1.0 + 6e-11, False)])
    def test_one_by_one(self, modulus, accepted):
        # the stack's sum |u|^2 exceeds u.size here, yet the residual |u|^2 - 1 decides, as per matrix
        u = np.array([[modulus * np.exp(0.7j)]])
        if accepted:
            assert require_unitary(u) is u
        else:
            with pytest.raises(ValueError, match="not unitary"):
                require_unitary(u)


class TestValidatorsAgainstReference:
    @given(seed=SEEDS, dim=st.integers(1, 4), count=st.integers(1, 4), scale=SCALES)
    def test_require_unitary(self, seed, dim, count, scale):
        for x in layouts(perturbed_unitaries(seed, dim, count, scale)):
            check_validator(require_unitary, reference_unitary_residual, x)

    @given(seed=SEEDS, dim=st.integers(1, 4), count=st.integers(1, 4), scale=SCALES)
    def test_require_state(self, seed, dim, count, scale):
        for x in layouts(perturbed_states(seed, dim, count, scale)):
            check_validator(require_state, reference_state_deviation, x)

    @given(seed=SEEDS, count=st.integers(1, 4), scale=SCALES, slot=st.integers(0, 1))
    def test_require_unitary_pair(self, seed, count, scale, slot):
        # one slot perturbed: the pair passes exactly when that slot is within the tolerance
        u = perturbed_unitaries(seed, 2, count, scale)
        pair = [np.linalg.qr(g).Q for g in (u, u[::-1])]
        pair[slot] = u
        expected = reference_unitary_residual(u)
        if expected <= UNITARY_TOL - 1e-15:
            assert np.array_equal(require_unitary_pair(*pair), np.concatenate(pair, axis=-2))
        elif expected > UNITARY_TOL + 1e-15:
            with pytest.raises(ValueError, match="not unitary|above 1"):
                require_unitary_pair(*pair)

    def test_scales_reach_both_sides_of_the_tolerance(self):
        for perturbed, reference in [
            (perturbed_unitaries, reference_unitary_residual),
            (perturbed_states, reference_state_deviation),
        ]:
            assert reference(perturbed(0, 2, 1, 1e-12)) < UNITARY_TOL < reference(perturbed(0, 2, 1, 1e-8))


class TestRequireUnitaryPair:
    def test_one_gate_over_the_other(self):
        w = require_unitary_pair(SX, SZ)
        assert w.shape == (4, 2) and w.dtype == complex
        assert np.array_equal(w[:2], SX) and np.array_equal(w[2:], SZ)

    def test_broadcasts_only_unequal_shapes(self):
        us = haar_random_unitaries(RandomSource(3), 5)
        w = require_unitary_pair(HAD, us)
        assert w.shape == (5, 4, 2)
        assert np.array_equal(w[:, :2], np.broadcast_to(HAD, (5, 2, 2))) and np.array_equal(w[:, 2:], us)
        assert require_unitary_pair(np.empty((0, 2, 2)), SX).shape == (0, 4, 2)
        with pytest.raises(ValueError):
            require_unitary_pair(us[:2], us)

    @pytest.mark.parametrize("bad, match", [
        (np.zeros((2, 3)), r"expected square matrices, got shape \(2, 3\)"),
        (np.zeros(2), r"expected square matrices, got shape \(2,\)"),
        (np.eye(3), r"expected 2x2 gates, got shape \(3, 3\)"),
        (2 * np.eye(3), "above 1"),
    ])
    def test_shape_of_each_gate(self, bad, match):
        for pair in ((bad, SX), (SX, bad)):
            with pytest.raises(ValueError, match=match):
                require_unitary_pair(*pair)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, value, match", [
        ((0, 1), np.nan, "above 1"),
        ((0, 1), 1e200, "above 1"),
        ((1, 0), 1.5, "above 1"),
        ((1, 1), 0.5, "not unitary"),
        (None, 1.0 + 1e-10, r"not unitary \(residual 2\.828e-10\)"),  # None: the whole gate scaled
        (None, 1.0 + 1e-11, None),
    ])
    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_decides_as_require_unitary_on_the_stacked_view(self, entry, value, match, stack, slot):
        # one gate spoilt, alone or as matrix 3 of a stack of 5; the other slot stays unitary
        gates = haar_random_unitaries(RandomSource(13), 10).reshape(2, 5, 2, 2)
        pair = [g if stack else g[3] for g in gates]
        spoilt = pair[slot][3] if stack else pair[slot]
        if entry is None:
            spoilt *= value
        else:
            spoilt[entry] = value
        view = np.concatenate(pair, axis=-2).reshape(pair[0].shape[:-2] + (2, 2, 2))
        got, expected = rejection(require_unitary_pair, *pair), rejection(require_unitary, view)
        assert got == expected
        assert got is None if match is None else re.search(match, got)
        pair_dev = formed_deviation(require_unitary_pair, *pair)
        view_dev = formed_deviation(require_unitary, view)
        assert (pair_dev is None) == (view_dev is None)
        if pair_dev is not None:
            assert pair_dev.tobytes() == view_dev.tobytes()


class TestBothOrders:
    def test_matches_explicit_products(self):
        rng = RandomSource(4)
        u1, u2 = haar_random_unitaries(rng, 2)
        us = haar_random_unitaries(rng, 30)
        psi = us[:, :, 0]  # unit columns
        for a, b, states in [(u1, u2, psi), (u1, us, psi), (us, u2, psi[0]), (us, us[::-1], psi)]:
            ab, ba = both_orders(a, b, states)
            assert np.abs(ab - (a @ b @ states[..., None])[..., 0]).max() <= 1e-15
            assert np.abs(ba - (b @ a @ states[..., None])[..., 0]).max() <= 1e-15

    def test_paulis(self):
        ab, ba = both_orders(SX, SY, np.array([1.0, 0.0]))
        assert np.allclose(ab, [1j, 0]) and np.allclose(ba, [-1j, 0])  # XY = iZ, YX = -iZ


def matmul_unitary_residual(u):
    """Largest ||U U^dag - I||_F over a stack, from the batched ``u @ u.mT.conj()`` Gram
    product that ``require_unitary`` formed before it used one stack-wide vecdot."""
    n = u.shape[-1]
    dev = (u @ u.mT.conj()).reshape(u.shape[:-2] + (n * n,))
    dev[..., :: n + 1] -= 1.0
    return np.sqrt(max_row_norm_sq(dev))


def strided_gram_deviation(u):
    """U U^dag - I as rows (..., n*n), formed as the check once formed it: the diagonal
    lowered in place through a strided view, before it subtracted a whole identity."""
    n = u.shape[-1]
    dev = np.vecdot(u[..., None, :, :], u[..., :, None, :]).reshape(u.shape[:-2] + (n * n,))
    dev[..., :: n + 1] -= 1.0
    return dev


class TestVecdotGram:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-10, 1e-8, 0.5])
    def test_residual_bytes_match_the_strided_subtraction(self, dim, scale):
        for seed, shape in enumerate([(), (1,), (7,), (3, 5), (0,)]):
            u = perturbed_unitaries(seed, dim, int(np.prod(shape)), scale).reshape(shape + (dim, dim))
            for x in layouts(u) + [-u, u.real + 0j]:
                dev = formed_deviation(require_unitary, x)
                if dev is None:  # the entry bound rejects x before any Gram product
                    with pytest.raises(ValueError, match="above 1"):
                        require_unitary(x)
                else:
                    assert dev.tobytes() == strided_gram_deviation(x).tobytes()

    def test_residual_bytes_match_on_a_failing_stack(self):
        # signed zeros, exact Paulis and one matrix far from unitary; the message is the one the
        # strided subtraction gave
        u = np.stack([-ID2, SX, -SY, SZ, HAD, np.array([[0.5, -0.0], [0.25j, -0.75]])])
        assert formed_deviation(require_unitary, u).tobytes() == strided_gram_deviation(u).tobytes()
        with pytest.raises(ValueError, match=r"not unitary \(residual 8.570e-01\)"):
            require_unitary(u)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-10, 1e-8])
    def test_residual_matches_the_matmul_gram(self, dim, scale):
        for seed, shape in enumerate([(1,), (7,), (3, 5)]):
            u = perturbed_unitaries(seed, dim, int(np.prod(shape)), scale).reshape(shape + (dim, dim))
            for x in layouts(u):
                got = np.sqrt(max_row_norm_sq(formed_deviation(require_unitary, x)))
                assert abs(got - matmul_unitary_residual(x)) <= 1e-15

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 3, 3), (4, 0, 4, 4)])
    def test_empty_stacks(self, shape):
        u = np.empty(shape, dtype=complex)
        assert max_row_norm_sq(formed_deviation(require_unitary, u)) == matmul_unitary_residual(u) == 0.0
        assert require_unitary(u) is u


class TestEntrywiseDeterminant:
    def test_matches_lapack(self):
        gen = np.random.default_rng(9)
        g = complex_normal(gen, (500, 2, 2))
        g[::5] = g[::5, :, :1] * (gen.standard_normal((100, 1, 2)) + 1j)  # rank one
        g[1::5] *= 1e-7  # |det| ~ 1e-14
        assert np.abs(det2(g) - np.linalg.det(g)).max() <= 1e-14
        assert det2(g).shape == (500,) and det2(g[0]).shape == ()
        singular = np.abs(np.linalg.det(g)) <= 1e-12
        assert 200 <= singular.sum() < 500
        assert np.array_equal(np.abs(det2(g)) <= 1e-12, singular)


class TestPauliColumns:
    def test_match_the_products_bit_for_bit(self):
        rs = haar_random_unitaries(RandomSource(12), 1000)
        for times, pauli in ((times_sz, SZ), (times_sy, SY)):
            assert np.array_equal(times(rs), rs @ pauli)
            assert np.array_equal(times(rs[0]), rs[0] @ pauli)
            assert np.array_equal(times(rs[:3, 0]), rs[:3, 0] @ pauli)  # a 3x2 matrix
