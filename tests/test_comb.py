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

from oracles import build_comb_from_circuit, choi, class_average, icosahedral_design, tensor


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

    @pytest.mark.parametrize("reshape", [np.ravel, lambda w: w.reshape(4, 256), lambda w: np.stack([w, w])],
                             ids=["flat", "4x256", "stack"])
    def test_rejects_a_comb_not_32x32(self, reshape):
        # a valid comb's 1,024 entries in another shape, or a stack of valid combs, are not one comb
        w = reshape(np.eye(DIM) * 4.0 / DIM)
        with pytest.raises(ValueError, match="expected a 32x32 comb"):
            probability_from_comb(w, SX, SX, 0)
        with pytest.raises(ValueError, match="expected a 32x32 comb"):
            evaluate_comb(w, sample_pairs(RandomSource(22), 1, 1))

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
    @hermitian_inputs
    def test_idempotent(self, seed, exponent):
        x = random_hermitian(np.random.default_rng(seed), DIM) * 10.0**exponent
        p = project_comb_affine(x)
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


class TestBlockCoordinates:
    def test_basis_is_orthonormal_and_hermitian(self, coords):
        flat = coords.basis.reshape(20, -1)
        assert np.abs((flat.conj() @ flat.T).real - np.eye(20)).max() <= 1e-14
        assert np.abs(coords.basis - np.conj(np.swapaxes(coords.basis, -2, -1))).max() <= 1e-15

    def test_basis_commutes_with_gate_symmetry(self, coords):
        for v in icosahedral_design():
            g = gate_symmetry(v)
            assert np.abs(g @ coords.basis - coords.basis @ g).max() <= 1e-14

    def test_affine_map_matches_read_off(self, coords):
        # reference: project_comb_affine on the zero operator and each basis operator
        stack = np.concatenate([np.zeros((1, DIM, DIM)), coords.basis])
        projected = coords.reduce(project_comb_affine(stack))
        assert np.abs(coords.affine - (projected[1:] - projected[0]).T).max() <= 1e-14
        assert np.abs(coords.offset - projected[0]).max() <= 1e-14
        assert np.array_equal(coords.offset, coords.reduce(np.eye(DIM) * 4.0 / DIM))
        assert np.array_equal(coords.affine, coords.affine.T)
        assert np.abs(coords.affine @ coords.affine - coords.affine).max() <= 1e-14
        assert np.linalg.matrix_rank(coords.affine) == 12

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
        gen = np.random.default_rng(18)
        for c in gen.standard_normal((10, 20)):
            full = project_comb_affine(coords.embed(c))
            assert np.abs(coords.embed(coords.affine @ c + coords.offset) - full).max() <= 1e-13

    def test_objective_round_trip(self, coords, small_objective):
        assert np.abs(coords.embed(coords.reduce(small_objective)) - small_objective).max() <= 1e-14

    def test_blocks_round_trip(self, coords):
        c = np.random.default_rng(19).standard_normal(20)
        blocks = coords.blocks(c)
        assert np.array_equal(blocks, np.conj(np.swapaxes(blocks, -2, -1)))
        assert np.abs(coords.coordinates(blocks) - c).max() <= 1e-15
        # the six blocks hold the spectrum of the 32x32 operator, each eigenvalue
        # of spin-j block repeated 2j+1 times
        sizes = [1, 3, 2] * 2
        spectrum = np.concatenate([np.repeat(np.linalg.eigvalsh(b[:m, :m]), 5 - 2 * (k % 3))
                                   for k, (b, m) in enumerate(zip(blocks, sizes))])
        assert np.abs(np.sort(spectrum) - np.linalg.eigvalsh(coords.embed(c))).max() <= 1e-13

    def test_objective_blocks_are_diagonal_and_rational(self, coords, design_average):
        # the coupled copies make every block of the design average diagonal, with
        # the table's entries; outcome 0 then 1, spin 2, 1, 0 each
        expected = np.zeros((6, 3, 3))
        for k, diagonal in enumerate([[1 / 15], [1 / 6, 1 / 6, 0], [1 / 2, 1 / 6], [1 / 5], [0, 0, 1 / 3], [0]]):
            expected[k, range(len(diagonal)), range(len(diagonal))] = diagonal
        assert np.array_equal(np.asarray(comb.OMEGA_DIAGONALS)[:, :, None] * np.eye(3), expected)
        assert np.abs(coords.blocks(coords.reduce(design_average)) - expected).max() <= 1e-15

    def test_basis_is_real(self, coords):
        assert coords.basis.dtype == np.float64 and coords.basis.shape == (20, DIM, DIM)

    def test_rejects_non_invariant_objective(self):
        omega = random_hermitian(np.random.default_rng(20), DIM)
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
        c = np.random.default_rng(seed).standard_normal(20) * 10.0**exponent
        p = coords.affine @ c + coords.offset
        assert np.linalg.norm(coords.affine @ p + coords.offset - p) <= 1e-12 * (1 + np.linalg.norm(c))


@pytest.fixture(scope="module")
def small_objective():
    return objective_operator()


@pytest.fixture(scope="module")
def optimum(small_objective):
    return optimize_fixed_order(small_objective)


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
        # spin 2, 1, 0), with every eigenvalue far from both thresholds (measured: zeros at most
        # 1.7e-11, nonzeros at least 0.172)
        coords = comb._block_coordinates()
        eigenvalues = np.linalg.eigvalsh(coords.blocks(coords.reduce(optimum.comb)))
        nonzero = eigenvalues >= 0.05
        assert (nonzero | (np.abs(eigenvalues) <= 1e-6)).all()
        assert nonzero.sum(axis=1).tolist() == [0, 2, 2, 1, 1, 0]

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
        assert loose.iterations < optimum.iterations
        assert loose.gap <= 1e-6
        assert loose.lower <= (17 + 2 * np.sqrt(7)) / 24 <= loose.upper
        assert loose.p_succ == loose.lower

    def test_raises_without_a_certified_gap(self, monkeypatch, small_objective):
        monkeypatch.setattr(comb, "MAX_ITER", 30)
        with pytest.raises(RuntimeError, match="primal residual"):
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

    def test_history_traces_every_check(self, optimum):
        rows = optimum.history
        assert [row["iteration"] for row in rows] == list(range(10, optimum.iterations + 1, 10))
        last = rows[-1]
        assert (last["lower"], last["upper"]) == (optimum.lower, optimum.upper)
        assert last["primal_residual"] == optimum.primal_residual
        assert all(row["lower"] <= row["upper"] for row in rows)
        # the checks narrow the interval to the stopping gap
        assert rows[0]["upper"] - rows[0]["lower"] > comb.GAP_TOL >= last["upper"] - last["lower"]


class TestSwitchExceedsBound:
    def test_switch_is_perfect_where_comb_is_not(self):
        pairs = sample_pairs(RandomSource(17), 25, 25)
        for pair in pairs:
            out = exit_probabilities(pair.u1, pair.u2)
            correct = out.p0 if pair.label is Verdict.COMMUTE else out.p1
            assert correct >= 1 - 1e-10
