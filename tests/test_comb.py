import functools
import itertools
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch import comb
from qswitch.comb import (
    DIM,
    _BlockCoordinates,
    _schur_vectors,
    _tail_traces,
    comb_residuals,
    evaluate_comb,
    objective_operator,
    optimize_fixed_order,
    probability_from_comb,
    project_comb_affine,
)
from qswitch.gates import GatePair, PairStack, RandomSource, haar_random_unitaries, sample_pairs
from qswitch.linalg import HAD, ID2, SX, SY
from qswitch.switch import Verdict, exit_probabilities

from oracles import build_comb_from_circuit, choi, class_average, face_columns, icosahedral_design, tensor


def random_hermitian(gen, dim):
    m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return m + m.conj().T


class TestProbabilityFromComb:
    def test_matches_kronecker_trace(self):
        # reference: tr(S_i W) with the 32x32 score operator built pair by pair
        gen = np.random.default_rng(20)
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        v2 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        v3 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        w = build_comb_from_circuit(prep / np.linalg.norm(prep), v2, v3)
        us = haar_random_unitaries(RandomSource(0), 40)
        u1, u2, outcomes = us[:20], us[20:], np.arange(20) % 2
        got = probability_from_comb(w, u1, u2, outcomes)
        assert got.shape == (20,)
        for k in range(20):
            s = np.kron(np.kron(choi(u1[k]), choi(u2[k])), np.diag(np.eye(2)[outcomes[k]]))
            assert got[k] == pytest.approx(np.trace(s @ w).real, abs=1e-12)
            assert probability_from_comb(w, u1[k], u2[k], outcomes[k]) == pytest.approx(got[k], abs=1e-15)

    def test_broadcasts_pairs_against_outcomes(self, optimum):
        # pairs and outcomes broadcast like any two numpy operands: one pair against both
        # outcomes, and a (3, 1) stack of pairs against (2,) outcomes
        us = haar_random_unitaries(RandomSource(21), 8)
        w, outcomes = optimum.comb, np.array([0, 1])
        both = probability_from_comb(w, us[0], us[1], outcomes)
        assert both.shape == (2,)
        for i in (0, 1):
            assert both[i] == pytest.approx(probability_from_comb(w, us[0], us[1], i), abs=1e-15)
        u1, u2 = us[2:5, None], us[5:8, None]
        grid = probability_from_comb(w, u1, u2, outcomes)
        assert grid.shape == (3, 2)
        for k, i in itertools.product(range(3), (0, 1)):
            assert grid[k, i] == pytest.approx(probability_from_comb(w, u1[k, 0], u2[k, 0], i), abs=1e-15)
        # a valid comb's two outcomes of one pair sum to one
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12) and np.allclose(both.sum(), 1.0, atol=1e-12)

    def test_uniform_comb_scores_one_half(self):
        # tr S_i = 4 for every pair and outcome, so the comb I/8 scores 1/2 on each
        us = haar_random_unitaries(RandomSource(1), 20)
        for i in (0, 1):
            p = probability_from_comb(np.eye(DIM) * 4.0 / DIM, us[:10], us[10:], i)
            assert np.allclose(p, 0.5, atol=1e-12)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            probability_from_comb(np.eye(DIM) / 8.0, SX, SX, 2)
        with pytest.raises(ValueError):
            probability_from_comb(np.eye(DIM) / 8.0, np.stack([SX, SY]), np.stack([SX, SY]), [0, 2])
        # booleans would index as a mask and floats not at all: only integer outcomes count
        for i in (False, True, [True, False], 1.0, [0.0, 1.0], np.float64(0.0)):
            with pytest.raises(ValueError, match="outcome must be 0 or 1"):
                probability_from_comb(np.eye(DIM) / 8.0, np.stack([SX, SY]), np.stack([SX, SY]), i)

    @pytest.mark.parametrize("reshape", [np.ravel, lambda w: w.reshape(4, 256), lambda w: np.stack([w, w]),
                                         lambda w: w[:16, :16]],
                             ids=["flat", "4x256", "stack", "16x16"])
    def test_rejects_a_comb_not_32x32(self, reshape):
        # a valid comb's 1,024 entries in another shape, a stack of valid combs, or a corner of
        # one are not one comb, nor one objective of the comb SDP
        w = reshape(np.eye(DIM) * 4.0 / DIM)
        with pytest.raises(ValueError, match="expected a 32x32 comb"):
            probability_from_comb(w, SX, SX, 0)
        with pytest.raises(ValueError, match="expected a 32x32 comb"):
            evaluate_comb(w, sample_pairs(RandomSource(22), 1, 1))
        with pytest.raises(ValueError, match=rf"objective must be 32x32, got shape \({np.shape(w)[0]},"):
            optimize_fixed_order(w)

    def test_empty_stack(self):
        w = np.eye(DIM) * 4.0 / DIM
        p = probability_from_comb(w, np.empty((0, 2, 2)), np.empty((0, 2, 2)), np.array([], dtype=int))
        assert p.shape == (0,)

    def test_out_of_range_probability(self):
        pairs = sample_pairs(RandomSource(22), 1, 1)
        for w in (np.eye(DIM), np.full((DIM, DIM), np.nan)):  # NaN is out of range too
            with pytest.raises(ValueError, match="out-of-range"):
                probability_from_comb(w, SX, HAD, 0)
            with pytest.raises(ValueError, match="out-of-range"):
                evaluate_comb(w, pairs)


class TestCircuitCombs:
    def circuit_probability(self, prep, v2, v3, u1, u2, measured_wire, i):
        """Direct statevector reference for the circuit the comb encodes."""
        da = prep.size // 2
        state = v3 @ tensor(u2, np.eye(da)) @ v2 @ tensor(u1, np.eye(da)) @ prep
        t = state.reshape(2, da)
        if measured_wire == 1:
            t = t.T
        return float(np.linalg.norm(t[i]) ** 2)

    def test_matches_statevector(self):
        gen = np.random.default_rng(1)
        rng = RandomSource(2)
        for da in (1, 2):
            prep = gen.standard_normal(2 * da) + 1j * gen.standard_normal(2 * da)
            prep /= np.linalg.norm(prep)
            v2 = np.linalg.qr(random_hermitian(gen, 2 * da) * 1j + random_hermitian(gen, 2 * da))[0]
            v3 = np.linalg.qr(random_hermitian(gen, 2 * da) * 1j + random_hermitian(gen, 2 * da))[0]
            for wire in (0, 1) if da == 2 else (0,):
                w = build_comb_from_circuit(prep, v2, v3, measured_wire=wire)
                us = haar_random_unitaries(rng, 40)
                for k in range(20):
                    u1, u2 = us[2 * k], us[2 * k + 1]
                    for i in (0, 1):
                        direct = self.circuit_probability(prep, v2, v3, u1, u2, wire, i)
                        assert probability_from_comb(w, u1, u2, i) == pytest.approx(
                            direct, abs=1e-10
                        )

    def test_is_valid_comb(self):
        gen = np.random.default_rng(3)
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        prep /= np.linalg.norm(prep)
        v2 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        v3 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        res = comb_residuals(build_comb_from_circuit(prep, v2, v3))
        assert res["hermiticity"] <= 1e-12
        assert res["slot2"] <= 1e-12
        assert res["slot1"] <= 1e-12
        assert res["trace"] <= 1e-12
        assert res["min_eigenvalue"] >= -1e-12

    def test_probabilities_sum_to_one(self):
        gen = np.random.default_rng(4)
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        prep /= np.linalg.norm(prep)
        v2 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        v3 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        w = build_comb_from_circuit(prep, v2, v3)
        rng = RandomSource(5)
        us = haar_random_unitaries(rng, 20)
        for k in range(10):
            u1, u2 = us[2 * k], us[2 * k + 1]
            total = probability_from_comb(w, u1, u2, 0) + probability_from_comb(w, u1, u2, 1)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_prep(self):
        with pytest.raises(ValueError):
            build_comb_from_circuit(np.array([1.0, 1.0]), ID2, ID2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_prep(self, bad):
        eye4 = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            build_comb_from_circuit(np.array([bad, 0.0, 0.0, 0.0]), eye4, eye4)


@pytest.fixture(scope="module")
def design_average():
    return class_average(icosahedral_design())


class TestExactObjective:
    def test_design_is_exact(self, design_average):
        # a 5-design stays one under left and right translation by any unitary
        design = icosahedral_design()
        for r in haar_random_unitaries(RandomSource(6), 3):
            assert np.linalg.norm(class_average(r @ design) - design_average) <= 1e-12
            assert np.linalg.norm(class_average(design @ r) - design_average) <= 1e-12

    def test_trace_preserved(self):
        assert np.trace(objective_operator()).real == pytest.approx(4.0, abs=1e-10)

    def test_matches_haar_average(self):
        rs = haar_random_unitaries(RandomSource(7), 20_000)
        assert np.linalg.norm(class_average(rs) - objective_operator()) <= 0.05

    def test_matches_kronecker_form(self, design_average):
        assert np.abs(objective_operator() - design_average).max() <= 1e-15


class TestTailTraces:
    def test_stack_matches_per_operator_calls(self):
        gen = np.random.default_rng(10)
        x = np.stack([random_hermitian(gen, DIM) for _ in range(3)])
        stacked = _tail_traces(x)
        for k in range(3):
            for got, one in zip(stacked, _tail_traces(x[k])):
                assert np.array_equal(got[k], one)
        assert np.array_equal(project_comb_affine(x)[1], project_comb_affine(x[1]))

    def test_product_operators(self):
        # tracing the last k wires of A (x) B, with B on those k wires, gives tr(B) A
        gen = np.random.default_rng(9)
        for k in range(1, 5):
            a = random_hermitian(gen, DIM // 2**k) * 1j + random_hermitian(gen, DIM // 2**k)
            b = random_hermitian(gen, 2**k) * 1j + random_hermitian(gen, 2**k)
            x = np.kron(a, b)
            traces = _tail_traces(x)
            assert traces[0] is x
            assert np.linalg.norm(traces[k] - np.trace(b) * a) <= 1e-12


# random Hermitian 32x32 operators from 1e-6 to 1e6 in scale
hermitian_inputs = given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6))


class TestAffineProjection:
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6), real=st.booleans())
    def test_idempotent(self, seed, exponent, real):
        x = random_hermitian(np.random.default_rng(seed), DIM) * 10.0**exponent
        x = x.real if real else x
        p = project_comb_affine(x)
        assert p.dtype == x.dtype  # a real operator stays real
        assert np.linalg.norm(project_comb_affine(p) - p) <= 1e-12 * (1 + np.linalg.norm(x))

    @hermitian_inputs
    def test_output_satisfies_affine_constraints(self, seed, exponent):
        x = random_hermitian(np.random.default_rng(seed), DIM) * 10.0**exponent
        res = comb_residuals(project_comb_affine(x))
        tol = 1e-12 * (1 + np.linalg.norm(x))
        assert res["slot2"] <= tol
        assert res["slot1"] <= tol
        assert res["trace"] <= tol

    def test_fixes_valid_comb(self):
        gen = np.random.default_rng(12)
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        prep /= np.linalg.norm(prep)
        v2 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        v3 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        w = build_comb_from_circuit(prep, v2, v3)
        assert np.linalg.norm(project_comb_affine(w) - w) <= 1e-10


@pytest.fixture(scope="module")
def coords():
    return _BlockCoordinates()


def gate_symmetry(v):
    """conj(V) (x) V (x) conj(V) (x) V (x) I, under which Omega and the comb constraints are invariant."""
    return tensor(v.conj(), v, v.conj(), v, ID2)


def symmetric_units():
    """The 20 symmetric 0/1 patterns of the six padded blocks, one per diagonal
    entry or mirrored pair, as rows of their 54 entries."""
    units = []
    for b, n in enumerate(comb.MULTIPLICITIES * 2):
        for a, c in itertools.combinations_with_replacement(range(n), 2):
            unit = np.zeros((6, 3, 3))
            unit[b, a, c] = unit[b, c, a] = 1
            units.append(unit.reshape(-1))
    return np.array(units)


def unit_operators(coords):
    """The 54 operators E[i, j, a, b] (54x32x32), embedded from the unit blocks."""
    return coords.embed(np.eye(54).reshape(54, 6, 3, 3))


class TestBlockCoordinates:
    def test_basis_is_orthogonal_with_weights(self, coords):
        # zero exactly at the padding; elsewhere <E, E> = 2j + 1 and E[i, j, a, b]^T = E[i, j, b, a]
        basis = unit_operators(coords)
        flat = basis.reshape(54, -1)
        support = flat.any(axis=1)
        assert np.array_equal(support, symmetric_units().any(axis=0))
        assert np.array_equal(coords.valid.reshape(-1), support)
        assert np.array_equal(coords.weights, np.repeat([5.0, 3.0, 1.0, 5.0, 3.0, 1.0], 9))
        assert np.abs(flat @ flat.T - np.diag(coords.weights * support)).max() <= 1e-14
        blocks = basis.reshape(6, 3, 3, DIM, DIM)
        assert np.abs(blocks.swapaxes(1, 2) - blocks.mT).max() <= 1e-15

    def test_basis_commutes_with_gate_symmetry(self, coords):
        basis = unit_operators(coords)
        for v in icosahedral_design():
            g = gate_symmetry(v)
            assert np.abs(g @ basis - basis @ g).max() <= 1e-14

    def test_affine_map_matches_read_off(self, coords):
        # reference: project_comb_affine on the zero operator and each basis operator, read
        # off on all 54 entries (the symmetrising reduce would fold each mirrored pair)
        basis = unit_operators(coords)
        stack = np.concatenate([np.zeros((1, DIM, DIM)), basis])
        flat = basis.reshape(54, -1)
        projected = (project_comb_affine(stack).reshape(55, -1) @ flat.T).real / coords.weights
        assert np.abs(coords.affine - (projected[1:] - projected[0]).T).max() <= 1e-14
        assert np.abs(coords.offset - projected[0]).max() <= 1e-14
        assert np.array_equal(coords.offset, coords.reduce(np.eye(DIM) * 4.0 / DIM).reshape(-1))
        # an orthogonal projection: self-adjoint in the weighted product, and idempotent
        gram = coords.weights[:, None] * coords.affine
        assert np.abs(gram - gram.T).max() <= 1e-15
        assert np.abs(coords.affine @ coords.affine - coords.affine).max() <= 1e-14
        # rank 12 on the symmetric blocks; the antisymmetric parts add 5
        assert np.linalg.matrix_rank(coords.affine @ symmetric_units().T) == 12
        assert np.linalg.matrix_rank(coords.affine) == 17

    def test_schur_vectors_match_kronecker_construction(self):
        # reference, in integers: J- as a sum of np.kron terms, the tops as
        # np.kron products, the frame as a matrix
        flip = np.array([[0, 0], [1, 0]])
        lowering = sum(np.kron(np.kron(np.eye(2**k, dtype=int), flip), np.eye(8 >> k, dtype=int)) for k in range(4))
        up, down = np.eye(4, dtype=int)[[0, 3]]
        singlet, triplet = np.array([[0, 1, -1, 0], [0, 1, 1, 0]])
        tops = ([np.kron(up, up)],
                [np.kron(up, singlet), np.kron(singlet, up), np.kron(up, triplet) - np.kron(triplet, up)],
                [np.kron(singlet, singlet),
                 2 * np.kron(up, down) - np.kron(triplet, triplet) + 2 * np.kron(down, up)])
        frame = tensor(SY, ID2, SY, ID2).real.astype(int)
        assert np.array_equal(frame, tensor(SY, ID2, SY, ID2))
        reference = np.zeros((3, 16, 5, 3), dtype=int)
        for s, (j, top) in enumerate(zip(comb.SPINS, tops)):
            vecs = np.transpose(top)
            for m in range(2 * j + 1):
                reference[s, :, m, :len(top)] = frame @ vecs
                vecs = lowering @ vecs
        q = _schur_vectors()
        assert np.issubdtype(q.dtype, np.integer)
        assert np.array_equal(q, reference)

    def test_schur_vectors_are_an_orthogonal_basis(self):
        # exact in int64: the 16 nonzero columns are pairwise orthogonal, so
        # they are a complete orthogonal basis of the four gate wires
        q = _schur_vectors().astype(np.int64)
        columns = q.transpose(1, 0, 2, 3).reshape(16, -1)
        columns = columns[:, columns.any(axis=0)]
        assert columns.shape == (16, 16)
        gram = columns.T @ columns
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert (np.diag(gram) > 0).all()

    def test_schur_vectors_lower_every_copy_alike(self):
        # exact in int64: within a spin, every copy's squared norm changes by
        # the same factor from m to m + 1, so one normalisation per vector
        # gives V^(x)4 the same action on every copy
        norms = (_schur_vectors().astype(np.int64) ** 2).sum(axis=1)
        for s, (j, mult) in enumerate(zip(comb.SPINS, comb.MULTIPLICITIES)):
            sq = norms[s, :2 * j + 1, :mult]
            assert (sq > 0).all()
            # sq[m + 1, a] / sq[m, a] == sq[m + 1, b] / sq[m, b], cross-multiplied
            assert np.array_equal(sq[1:, :, None] * sq[:-1, None, :], sq[1:, None, :] * sq[:-1, :, None])

    def test_affine_map_matches_projection(self, coords):
        # on all 54 entries, symmetric or not, the padding's included (the basis is zero there)
        gen = np.random.default_rng(18)
        for m in gen.standard_normal((10, 54)):
            full = project_comb_affine(coords.embed(m.reshape(6, 3, 3)))
            assert np.abs(coords.embed((coords.affine @ m + coords.offset).reshape(6, 3, 3)) - full).max() <= 1e-13

    def test_stacks_match_single_operators(self, coords):
        # a (2, 3) stack of blocks and of operators, against one call per operator
        gen = np.random.default_rng(22)
        blocks = gen.standard_normal((2, 3, 6, 3, 3))
        stack = coords.embed(blocks)
        assert stack.shape == (2, 3, DIM, DIM)
        ops = random_hermitian(gen, DIM) + stack
        reduced = coords.reduce(ops)
        assert reduced.shape == (2, 3, 6, 3, 3)
        for k in np.ndindex(2, 3):
            assert np.abs(stack[k] - coords.embed(blocks[k])).max() <= 1e-15
            assert np.abs(reduced[k] - coords.reduce(ops[k])).max() <= 1e-15
        # and the stack round-trips, its entries up to 5 in size
        symmetric = (blocks + blocks.mT) * symmetric_units().any(axis=0).reshape(6, 3, 3)
        assert np.abs(coords.reduce(coords.embed(symmetric)) - symmetric).max() <= 1e-14

    def test_objective_round_trip(self, coords, small_objective):
        assert np.abs(coords.embed(coords.reduce(small_objective)) - small_objective).max() <= 1e-14

    def test_blocks_round_trip(self, coords):
        gen = np.random.default_rng(19)
        blocks = (gen.standard_normal(20) @ symmetric_units()).reshape(6, 3, 3)
        assert np.abs(coords.reduce(coords.embed(blocks)) - blocks).max() <= 1e-15
        # reduce symmetrises: the antisymmetric part of any blocks is dropped
        noise = gen.standard_normal((6, 3, 3)) * symmetric_units().any(axis=0).reshape(6, 3, 3)
        assert np.abs(coords.reduce(coords.embed(blocks + noise - noise.mT)) - blocks).max() <= 1e-15
        # the six blocks hold the spectrum of the 32x32 operator, each eigenvalue
        # of spin-j block repeated 2j+1 times
        sizes = [1, 3, 2] * 2
        spectrum = np.concatenate([np.repeat(np.linalg.eigvalsh(b[:m, :m]), 5 - 2 * (k % 3))
                                   for k, (b, m) in enumerate(zip(blocks, sizes))])
        assert np.abs(np.sort(spectrum) - np.linalg.eigvalsh(coords.embed(blocks))).max() <= 1e-13

    def test_objective_blocks_are_diagonal_and_rational(self, coords, design_average):
        # the coupled copies make every block of the design average diagonal, with
        # the table's entries; outcome 0 then 1, spin 2, 1, 0 each
        expected = np.zeros((6, 3, 3))
        for k, diagonal in enumerate([[1 / 15], [1 / 6, 1 / 6, 0], [1 / 2, 1 / 6], [1 / 5], [0, 0, 1 / 3], [0]]):
            expected[k, range(len(diagonal)), range(len(diagonal))] = diagonal
        assert np.array_equal(np.asarray(comb.OMEGA_DIAGONALS)[:, :, None] * np.eye(3), expected)
        assert np.abs(coords.reduce(design_average) - expected).max() <= 1e-15

    def test_basis_is_real(self, coords):
        basis = unit_operators(coords)
        assert basis.dtype == np.float64 and basis.shape == (54, DIM, DIM)

    @pytest.mark.parametrize("kind", ["random", "antisymmetric"])
    def test_rejects_non_invariant_objective(self, coords, kind):
        if kind == "random":
            omega = random_hermitian(np.random.default_rng(20), DIM)
        else:
            # invariant under the gate symmetry but not Hermitian: its blocks are in the span
            # of the 54 entries, and only the symmetrising reduce drops them
            blocks = np.zeros((6, 3, 3))
            blocks[1, 0, 1], blocks[1, 1, 0] = 0.1, -0.1
            omega = coords.embed(blocks)
        with pytest.raises(ValueError, match="not invariant"):
            optimize_fixed_order(omega)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_objective(self, small_objective, bad):
        omega = small_objective.copy()
        omega[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            optimize_fixed_order(omega)

    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6))
    def test_projection_idempotent(self, coords, seed, exponent):
        m = np.random.default_rng(seed).standard_normal(54) * 10.0**exponent
        p = coords.affine @ m + coords.offset
        assert np.linalg.norm(coords.affine @ p + coords.offset - p) <= 1e-12 * (1 + np.linalg.norm(m))


@pytest.fixture(scope="module")
def small_objective():
    return objective_operator()


@pytest.fixture(scope="module")
def optimum(small_objective):
    return optimize_fixed_order(small_objective)


def admm_iterate(coords, target, every):
    """Yield the solver's ADMM iterate z, its block eigenpairs and its dual guess after every
    ``every`` steps."""
    pull = coords.affine @ (target / comb.RHO) + coords.offset
    z, u = coords.offset, np.zeros(54)
    for it in itertools.count(1):
        x = coords.affine @ (z - u) + pull + u
        lam, vec = np.linalg.eigh(x.reshape(6, 3, 3))
        z = ((vec * np.maximum(lam, 0.0)[:, None, :]) @ vec.mT).reshape(-1)
        u = x - z
        if it % every == 0:
            yield z, lam, vec, target - comb.RHO * u


@functools.cache
def random_solve(seed):
    """The symmetric objective embed(m + m^T) of the seeded random blocks m, and its solve; the
    degenerate seed 5 takes 18,690 iterations, so the tests that read a solve share it."""
    m = np.random.default_rng(seed).standard_normal((6, 3, 3))
    omega = comb._block_coordinates().embed(m + m.mT)
    return omega, optimize_fixed_order(omega)


def record_calls(monkeypatch, name):
    """Wrap ``comb.<name>`` so that each call appends (arguments, result) to the returned list."""
    calls = []
    original = getattr(comb, name)

    def keep(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(comb, name, keep)
    return calls


class TestOptimization:
    def test_near_known_value(self, optimum):
        assert optimum.p_succ == pytest.approx(0.9288, abs=0.005)

    def test_feasible(self, optimum):
        res = optimum.residuals
        assert res["hermiticity"] <= 1e-8
        assert res["slot2"] <= 1e-6
        assert res["slot1"] <= 1e-6
        assert res["trace"] <= 1e-6
        assert res["min_eigenvalue"] >= -1e-10

    def test_returns_the_certified_comb(self, small_objective, optimum):
        # the comb is the feasible one behind the lower end, not the last ADMM iterate
        assert optimum.p_succ == optimum.lower
        res = comb_residuals(optimum.comb)
        assert res["min_eigenvalue"] >= -1e-14
        assert max(res["slot2"], res["slot1"], res["trace"]) <= 1e-13
        assert np.trace(small_objective @ optimum.comb).real == pytest.approx(optimum.lower, abs=1e-14)

    def test_beats_constant_guess(self, optimum):
        assert optimum.p_succ > 0.5

    def test_circuit_combs_never_beat_optimum(self, small_objective, optimum):
        gen = np.random.default_rng(14)
        for _ in range(10):
            prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            prep /= np.linalg.norm(prep)
            v2 = np.linalg.qr(
                random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4)
            )[0]
            v3 = np.linalg.qr(
                random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4)
            )[0]
            w = build_comb_from_circuit(prep, v2, v3)
            value = float(np.trace(small_objective @ w).real)
            assert value <= optimum.p_succ + 1e-6

    def test_matches_independent_solver(self, small_objective, optimum):
        cp = pytest.importorskip("cvxpy")
        dims = [2, 2, 2, 2, 2]
        omega = small_objective
        w = cp.Variable((DIM, DIM), hermitian=True)

        def ptrace(expr, dims, k):
            return cp.partial_trace(expr, dims, axis=k)

        w2 = ptrace(ptrace(w, dims, 4), [2, 2, 2, 2], 3) / 2
        w1 = ptrace(ptrace(w2, [2, 2, 2], 2), [2, 2], 1) / 2
        constraints = [
            w >> 0,
            ptrace(w, dims, 4) == cp.kron(w2, np.eye(2)),
            ptrace(w2, [2, 2, 2], 2) == cp.kron(w1, np.eye(2)),
            cp.trace(w1) == 1,
        ]
        prob = cp.Problem(cp.Maximize(cp.real(cp.trace(omega @ w))), constraints)
        prob.solve(solver=cp.SCS, eps=1e-8)
        assert optimum.p_succ == pytest.approx(prob.value, abs=1e-4)

    def test_comb_block_ranks(self, optimum):
        # the primal half of strict complementarity: ranks of the six blocks (outcome 0 then 1,
        # spin 2, 1, 0), with every eigenvalue far from both thresholds (measured on the polished
        # comb: zeros at most 3.1e-16, nonzeros at least 0.172)
        coords = comb._block_coordinates()
        eigenvalues = np.linalg.eigvalsh(coords.reduce(optimum.comb))
        nonzero = eigenvalues >= 0.05
        assert (nonzero | (np.abs(eigenvalues) <= 1e-6)).all()
        assert nonzero.sum(axis=1).tolist() == [0, 2, 2, 1, 1, 0]

    def test_dual_slack_ranks_and_unique_face(self, monkeypatch, small_objective):
        # the dual half of strict complementarity, on the dual witness of the last certificate, the
        # polished one: the slack S = T - Omega (T the witness, shifted by eps I) has the ranks
        # complementary to the comb's on the true block sizes, with every eigenvalue far from both
        # thresholds (measured: zeros at most 4.6e-15, nonzeros at least 0.1333)
        calls = record_calls(monkeypatch, "_certificate")
        optimize_fixed_order(small_objective)
        (coords, target, _, dual), _ = calls[-1]
        t = dual - coords.affine @ dual
        eps = max(0.0, -np.linalg.eigvalsh((t - target).reshape(6, 3, 3)).min())
        identity = coords.offset * DIM / 4
        slack = (t + eps * identity - target).reshape(6, 3, 3)
        ranks, face = [], []
        for b, n in enumerate(comb.MULTIPLICITIES * 2):
            eigenvalues, vectors = np.linalg.eigh(slack[b, :n, :n])
            nonzero = eigenvalues >= 0.05
            assert (nonzero | (np.abs(eigenvalues) <= 1e-6)).all()
            ranks.append(int(nonzero.sum()))
            # the symmetric blocks supported on ker S: K A K^T for each symmetric unit A
            kernel = vectors[:, ~nonzero]
            for a, c in itertools.combinations_with_replacement(range(kernel.shape[1]), 2):
                blocks = np.zeros((6, 3, 3))
                blocks[b, :n, :n] = np.outer(kernel[:, a], kernel[:, c]) + np.outer(kernel[:, c], kernel[:, a])
                face.append(blocks.reshape(-1))
        assert ranks == [1, 1, 0, 0, 2, 2]
        # the face has dimension sum r(r + 1)/2 over the comb's block ranks 0, 2, 2, 1, 1, 0; the
        # comb constraints are injective on it (the projection onto their complement keeps every
        # unit vector of it at length >= 0.1, measured 0.388), so the optimal symmetric comb is unique;
        # lengths are Frobenius norms of the operators, so every block entry is scaled by sqrt(weights)
        root = np.sqrt(coords.weights)
        f = np.linalg.qr((np.array(face) * root).T)[0]
        assert f.shape == (54, 8)
        complement = root[:, None] * (np.eye(54) - coords.affine) / root
        assert np.linalg.svd(complement @ f, compute_uv=False).min() >= 0.1

    def test_comb_is_symmetric(self, optimum):
        # the iterate stays in the symmetric subspace, so the comb it maps back to does too
        for v in icosahedral_design()[::7]:
            g = gate_symmetry(v)
            assert np.abs(g @ optimum.comb - optimum.comb @ g).max() <= 1e-13

    def test_deterministic(self, small_objective, optimum):
        again = optimize_fixed_order(small_objective)
        assert again.p_succ == optimum.p_succ

    def test_evaluate_comb_on_labeled_pairs(self, optimum):
        pairs = sample_pairs(RandomSource(15), 50, 50)
        p = evaluate_comb(optimum.comb, pairs)
        assert p.shape == (100,) and 0.85 <= p.mean() <= 1.0

    def test_evaluate_comb_rejects_unlabeled(self, optimum):
        # an unlabeled pair cannot reach evaluate_comb: no stack holds one
        pairs = sample_pairs(RandomSource(16), 1, 1)
        with pytest.raises(ValueError, match="labelled COMMUTE or ANTICOMMUTE"):
            pairs[0] = GatePair(pairs[0].u1, pairs[0].u2, Verdict.NEITHER)
        with pytest.raises(ValueError, match="port must be 0"):
            PairStack(pairs.u1, pairs.u2, np.array([0, 2]))
        assert pairs.port.tolist() == [0, 1]
        p = evaluate_comb(optimum.comb, pairs)
        assert p.shape == (2,) and ((0.0 <= p) & (p <= 1.0)).all()


    def test_evaluate_comb_rejects_no_pairs(self, optimum):
        with pytest.raises(ValueError, match="no pairs were given"):
            evaluate_comb(optimum.comb, [])

    def test_stops_on_the_certified_gap(self, monkeypatch, small_objective, optimum):
        assert optimum.gap <= comb.GAP_TOL
        monkeypatch.setattr(comb, "GAP_TOL", 1e-6)
        loose = optimize_fixed_order(small_objective)
        # both stop at the first check, the loose one a refinement earlier (gap 5.9e-9)
        assert loose.iterations == optimum.iterations == 10
        assert optimum.gap < loose.gap <= 1e-6
        assert loose.lower <= (17 + 2 * np.sqrt(7)) / 24 <= loose.upper
        assert loose.p_succ == loose.lower

    def test_polish_stops_at_10_iterations(self, optimum):
        # ADMM's own gap at iteration 10 is 3.5e-2; the polish and its two refinements narrow it
        assert optimum.iterations == 10
        assert optimum.gap <= 1e-12
        assert optimum.lower <= (17 + 2 * np.sqrt(7)) / 24 <= optimum.upper

    def test_refinement_converges_quadratically(self, monkeypatch, small_objective):
        # from the iterate at iteration 10: ADMM's own pair first, then the polish and its two
        # refinements; measured gaps 3.5e-2, 1.0e-4, 5.9e-9 and 1.0e-15
        coords = comb._block_coordinates()
        target = coords.reduce(small_objective).reshape(-1)
        z, lam, vec, dual = next(admm_iterate(coords, target, 10))
        calls = record_calls(monkeypatch, "_certificate")
        *_, lower, upper, polished = comb._polish(coords, target, z, dual, lam > 0, vec)
        gaps = [up - low for _, (_, low, up) in calls]
        assert len(gaps) == 4
        (_, _, *admm_pair), _ = calls[0]
        assert all(np.array_equal(a, b) for a, b in zip(admm_pair, (z, dual)))
        assert gaps[0] == pytest.approx(3.5e-2, rel=0.05)
        assert gaps[1] <= 1e-3 and gaps[2] <= 1e-7 and gaps[3] <= comb.GAP_TOL
        assert upper - lower == min(gaps) and polished

    @pytest.mark.parametrize("seed", range(5))
    def test_face_matches_zeroed_array(self, coords, seed):
        # random orthonormal columns and random spans; F is the operand of the face pair's
        # one product with affine, which a stand-in for the coordinates keeps
        gen = np.random.default_rng(seed)
        vec = np.linalg.qr(gen.standard_normal((6, 3, 3)))[0]
        span = gen.random((6, 3)) < 0.6
        faces = []

        class Affine:
            def __matmul__(self, x):
                faces.append(x)
                return coords.affine @ x

        stand_in = types.SimpleNamespace(affine=Affine(), weights=coords.weights, offset=coords.offset)
        comb._face_pair(stand_in, gen.standard_normal(54), span, vec, gen.standard_normal(54))
        (face,), reference = faces, face_columns(span, vec)
        assert face.shape == reference.shape and face.shape[1] > 0
        assert face.tobytes() == reference.tobytes()

    def test_refined_faces_have_no_padding(self, monkeypatch, small_objective):
        # the padding's exact zeros in the dual slack are kept out of its kernel; taken in, they
        # widen the refined gap to 6.9e-2
        calls = record_calls(monkeypatch, "_face_pair")
        optimize_fixed_order(small_objective)
        padding = ~comb._block_coordinates().valid.any(axis=2)  # (block, row)
        assert len(calls) == 3
        for (_, _, span, vec, _), _ in calls[1:]:
            vectors = np.where(span[:, :, None], vec.mT, 0.0)  # (block, face vector, row)
            assert span.sum(axis=1).tolist() == [0, 2, 2, 1, 1, 0]
            assert np.abs(vectors * padding[:, None, :]).max() <= 1e-14

    # the iterate at iteration 5, whose ADMM gap is 0.18 and first polished gap 1.8e-3, and two
    # wrong faces, whose first pass widens ADMM's gap to 1 and 2 and so ends the polish; with the
    # dual 100 times ADMM's (gap 1e2) that pass narrows it tenfold and a refinement follows
    @pytest.mark.parametrize("face, far, certificates", [
        ("iterate", False, 4), ("every direction", False, 2), ("complement", False, 2),
        ("iterate", True, 4), ("every direction", True, 3), ("complement", True, 3),
    ])
    def test_polish_from_a_poor_face_brackets_the_optimum(self, monkeypatch, small_objective, face, far,
                                                          certificates):
        # a polish or a refinement from a poor face costs a wide interval, never a wrong one
        coords = comb._block_coordinates()
        target = coords.reduce(small_objective).reshape(-1)
        z, lam, vec, dual = next(admm_iterate(coords, target, 5))
        span = {"iterate": lam > 0, "every direction": np.ones_like(lam, bool), "complement": lam < 0}[face]
        calls = record_calls(monkeypatch, "_certificate")
        comb._polish(coords, target, z, 100 * dual if far else dual, span, vec)
        assert len(calls) == certificates
        for _, (certified, lower, upper) in calls:
            assert lower <= (17 + 2 * np.sqrt(7)) / 24 <= upper
            res = comb_residuals(coords.embed(certified.reshape(6, 3, 3)))
            assert res["min_eigenvalue"] >= -1e-14 and max(res["slot2"], res["slot1"], res["trace"]) <= 1e-13

    # iterations of the polished, refined solve, at most those of the unpolished solve, which
    # certifies ADMM's own pair alone at each check (measured: 10 at each c I, and 100, 110, 120,
    # 110, 240 and 18,770 on the random objectives of seeds 0-5). Seed 5's optimum is degenerate:
    # on its certified pair, block 1 (outcome 0, spin 1) has comb eigenvalues 6.2e-13, 1.6e-9 and
    # 0.906 and dual-slack eigenvalues (of T + eps I - Omega) 0, 2.5e-13 and 0.391, so one
    # direction is null for both and strict complementarity fails. ADMM is sublinear there and
    # every check's face passes fall short of GAP_TOL until the last, so the solve takes 18,690
    # iterations
    @pytest.mark.parametrize("objective, polished", [
        *[(("identity", c), 10) for c in (1.0, 1 / 4, 7 / 30)],
        *[(("random", seed), p) for seed, p in enumerate([100, 80, 120, 90, 210, 18_690])],
    ])
    def test_polish_never_costs_iterations(self, monkeypatch, coords, objective, polished):
        kind, value = objective
        if kind == "identity":
            omega = value * np.eye(DIM)
            result = optimize_fixed_order(omega)
        else:
            omega, result = random_solve(value)
        monkeypatch.setattr(comb, "_polish", lambda coords, target, primal, dual, span, vec:
                            (primal, *comb._certificate(coords, target, primal, dual), False))
        unpolished = optimize_fixed_order(omega).iterations
        assert result.iterations == polished <= unpolished
        # the gap is certified at the solve's scale, the power of two that brings 3 max|omega| into [1/2, 1)
        assert 0 <= result.gap <= comb.GAP_TOL * np.ldexp(1.0, np.frexp(3 * np.abs(omega).max())[1])

    def test_residuals_match_kronecker_formula(self, optimum):
        # the reference builds W2 (x) I and W1 (x) I with np.kron, on a complex copy
        def reference(w):
            w = np.asarray(w, dtype=complex)
            _, tr5, tr45, tr345, tr2345 = _tail_traces(w)
            return {"hermiticity": float(np.linalg.norm(w - w.conj().T)),
                    "slot2": float(np.linalg.norm(tr5 - np.kron(tr45 / 2.0, np.eye(2)))),
                    "slot1": float(np.linalg.norm(tr345 / 2.0 - np.kron(tr2345 / 4.0, np.eye(2)))),
                    "trace": float(abs(np.trace(w).real - 4.0)),
                    "min_eigenvalue": float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])}

        for w in (optimum.comb, random_hermitian(np.random.default_rng(18), DIM)):
            res, ref = comb_residuals(w), reference(w)
            assert res.keys() == ref.keys()
            assert all(abs(res[key] - ref[key]) <= 1e-15 for key in ref), (res, ref)

    def test_raises_without_a_certified_gap(self, monkeypatch, coords, small_objective):
        # a certificate whose upper end is 1e-3 too high never certifies GAP_TOL, polished or not;
        # the error reports the distance of the last iterate, at iteration 35, from the comb subspace
        certificate = comb._certificate

        def wide(*args):
            certified, lower, upper = certificate(*args)
            return certified, lower, upper + 1e-3

        monkeypatch.setattr(comb, "_certificate", wide)
        monkeypatch.setattr(comb, "MAX_ITER", 35)
        z, *_ = next(admm_iterate(coords, coords.reduce(small_objective).reshape(-1), 35))
        distance = np.sqrt(coords.weights @ (z - coords.affine @ z - coords.offset) ** 2)
        with pytest.raises(RuntimeError, match=rf"in 35 iterations \(primal residual {distance:.3e}\)"):
            optimize_fixed_order(small_objective)

    @pytest.mark.parametrize("max_iter", [0, 5])
    def test_raises_before_the_first_check(self, monkeypatch, small_objective, max_iter):
        monkeypatch.setattr(comb, "MAX_ITER", max_iter)
        with pytest.raises(RuntimeError, match=f"in {max_iter} iterations"):
            optimize_fixed_order(small_objective)

    @given(k=st.integers(-20, 20))
    def test_power_of_two_scaling_is_exact(self, small_objective, optimum, k):
        scaled = optimize_fixed_order(2.0**k * small_objective)
        assert scaled.iterations == optimum.iterations
        assert scaled.lower == pytest.approx(2.0**k * optimum.lower, rel=1e-15, abs=0)

    @pytest.mark.parametrize("factor", [1e-300, 1e-3, 1e3, 1e300])
    def test_any_scale_converges(self, small_objective, optimum, factor):
        # the gap is relative to the objective's scale: with an absolute gap, 1000 Omega
        # ran out of iterations and Omega / 1000 took 40,970
        scaled = optimize_fixed_order(factor * small_objective)
        assert scaled.iterations <= 200
        assert scaled.lower / factor == pytest.approx(optimum.lower, abs=1e-9)
        assert scaled.lower <= factor * (17 + 2 * np.sqrt(7)) / 24 <= scaled.upper

    @pytest.mark.parametrize("c", [3.5e307, -3.5e307])
    def test_solves_near_the_top_of_float_range(self, c):
        # 3 max|c I| is below the largest float, its power of two 2**1024 is not; every comb
        # scores c tr W = 4c
        result = optimize_fixed_order(c * np.eye(DIM))
        assert np.isfinite([result.lower, result.upper]).all() and result.lower <= result.upper
        # the interval brackets 4c to rounding only (a comb's trace is 4 only to rounding): at
        # 1 * I, lower is 1 ulp below 4 and upper 1 ulp above; at c = 3.5e307 lower is 2 ulps below
        # 4c, but at -3.5e307 it is 2 ulps above, as at 295 of 300 uniform c in (-1, -0.1]
        assert result.lower == pytest.approx(4 * c, rel=1e-14)
        assert result.upper == pytest.approx(4 * c, rel=1e-14)
        # the same solve as at c * 2**-1000, scaled back exactly
        small = optimize_fixed_order(np.ldexp(c, -1000) * np.eye(DIM))
        assert result.iterations == small.iterations
        assert (result.lower, result.upper) == (np.ldexp(small.lower, 1000), np.ldexp(small.upper, 1000))

    def test_rejects_an_optimum_beyond_float_range(self):
        # the optimum 4e308 is not a float; as everywhere in tier 1, a RuntimeWarning would fail
        with pytest.raises(ValueError, match="outside float range"):
            optimize_fixed_order(1e308 * np.eye(DIM))

    def test_history_traces_every_check(self):
        # random seed 0, whose solve takes ten checks; its scale is 2**k
        omega, result = random_solve(0)
        scale = np.ldexp(1.0, np.frexp(3 * np.abs(omega).max())[1])
        rows = result.history
        assert [row["iteration"] for row in rows] == list(range(10, result.iterations + 1, 10))
        last = rows[-1]
        assert (last["lower"], last["upper"]) == (result.lower, result.upper)
        assert last["primal_residual"] == result.primal_residual
        assert all(row["lower"] <= row["upper"] for row in rows)
        # the checks narrow the interval to the stopping gap
        assert rows[0]["upper"] - rows[0]["lower"] > comb.GAP_TOL * scale >= last["upper"] - last["lower"]
        # every check polishes; a row is polished where a face pass was narrower than ADMM's own
        # pair, and the last check certifies ADMM's own gap
        assert [row["polished"] for row in rows] == [True] * 9 + [False]

    @pytest.mark.parametrize("seed", range(6))
    def test_no_check_is_wider_than_admm_certificate(self, coords, seed):
        # a face pass that widens the interval never replaces ADMM's own certificate: at iteration
        # 10 of seed 2 ADMM's own pair certifies a width of 1.46, the first face pass 145
        omega, result = random_solve(seed)
        k = np.frexp(3 * np.abs(omega).max())[1]
        target = coords.reduce(np.ldexp(omega, -k)).reshape(-1)
        for row, (z, _, _, dual) in zip(result.history, admm_iterate(coords, target, 10)):
            _, lower, upper = comb._certificate(coords, target, z, dual)
            assert np.ldexp(row["upper"], -k) - np.ldexp(row["lower"], -k) <= upper - lower, row["iteration"]

    def test_history_reports_the_polished_primal(self, optimum):
        # on Omega the polish at the first check ends the solve; its row reports the polished
        # primal, on the comb subspace to rounding, not the iterate at iteration 10 (objective
        # 0.968, primal residual 0.053)
        [row] = optimum.history
        assert row["iteration"] == 10 and row["polished"]
        assert (row["lower"], row["upper"]) == (optimum.lower, optimum.upper)
        assert row["primal_residual"] == optimum.primal_residual <= 1e-14
        assert row["objective"] == pytest.approx(optimum.lower, abs=1e-14)


class TestSwitchExceedsBound:
    def test_switch_is_perfect_where_comb_is_not(self):
        pairs = sample_pairs(RandomSource(17), 25, 25)
        for pair in pairs:
            out = exit_probabilities(pair.u1, pair.u2)
            correct = out.p0 if pair.label is Verdict.COMMUTE else out.p1
            assert correct >= 1 - 1e-10
