import numpy as np
import pytest

from qswitch.comb import (
    DIM,
    DIMS,
    build_comb_from_circuit,
    class_averaged_objective,
    comb_residuals,
    evaluate_comb,
    icosahedral_design,
    objective_operator,
    optimize_fixed_order,
    probability_from_comb,
    project_comb_affine,
    score_operator,
)
from qswitch.gates import RandomSource, haar_random_unitaries, sample_pairs
from qswitch.linalg import HAD, ID2, SX, SY, SZ, tensor
from qswitch.switch import Verdict, exit_probabilities


def random_hermitian(gen, dim):
    m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return m + m.conj().T


class TestScoreOperator:
    def test_trace_and_rank(self):
        rng = RandomSource(0)
        us = haar_random_unitaries(rng, 20)
        for k in range(10):
            s = score_operator(us[2 * k], us[2 * k + 1], 0)
            assert np.trace(s).real == pytest.approx(4.0, abs=1e-10)
            evals = np.linalg.eigvalsh(s)
            assert evals[0] >= -1e-10
            assert evals[-2] <= 1e-9  # rank one

    def test_outcome_projectors_sum(self):
        s0 = score_operator(SX, HAD, 0)
        s1 = score_operator(SX, HAD, 1)
        assert np.trace(s0 + s1).real == pytest.approx(8.0, abs=1e-10)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            score_operator(SX, SX, 2)


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


class TestExactObjective:
    def test_design_is_exact(self):
        # a 5-design stays one under left and right translation by any unitary
        omega = objective_operator()
        design = icosahedral_design()
        for r in haar_random_unitaries(RandomSource(6), 3):
            assert np.linalg.norm(class_averaged_objective(r @ design) - omega) <= 1e-12
            assert np.linalg.norm(class_averaged_objective(design @ r) - omega) <= 1e-12

    def test_trace_preserved(self):
        assert np.trace(objective_operator()).real == pytest.approx(4.0, abs=1e-10)

    def test_matches_haar_average(self):
        rs = haar_random_unitaries(RandomSource(7), 20_000)
        assert np.linalg.norm(class_averaged_objective(rs) - objective_operator()) <= 0.05


class TestAffineProjection:
    def test_idempotent(self):
        gen = np.random.default_rng(10)
        x = random_hermitian(gen, DIM)
        p = project_comb_affine(x)
        assert np.linalg.norm(project_comb_affine(p) - p) <= 1e-10

    def test_output_satisfies_affine_constraints(self):
        gen = np.random.default_rng(11)
        res = comb_residuals(project_comb_affine(random_hermitian(gen, DIM)))
        assert res["slot2"] <= 1e-10
        assert res["slot1"] <= 1e-10
        assert res["trace"] <= 1e-10

    def test_fixes_valid_comb(self):
        gen = np.random.default_rng(12)
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        prep /= np.linalg.norm(prep)
        v2 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        v3 = np.linalg.qr(random_hermitian(gen, 4) * 1j + random_hermitian(gen, 4))[0]
        w = build_comb_from_circuit(prep, v2, v3)
        assert np.linalg.norm(project_comb_affine(w) - w) <= 1e-10


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
        omega = small_objective
        w = cp.Variable((DIM, DIM), hermitian=True)

        def ptrace(expr, dims, k):
            return cp.partial_trace(expr, dims, axis=k)

        w2 = ptrace(ptrace(w, DIMS, 4), [2, 2, 2, 2], 3) / 2
        w1 = ptrace(ptrace(w2, [2, 2, 2], 2), [2, 2], 1) / 2
        constraints = [
            w >> 0,
            ptrace(w, DIMS, 4) == cp.kron(w2, np.eye(2)),
            ptrace(w2, [2, 2, 2], 2) == cp.kron(w1, np.eye(2)),
            cp.trace(w1) == 1,
        ]
        prob = cp.Problem(cp.Maximize(cp.real(cp.trace(omega @ w))), constraints)
        prob.solve(solver=cp.SCS, eps=1e-8)
        assert optimum.p_succ == pytest.approx(prob.value, abs=1e-4)

    def test_deterministic(self, small_objective, optimum):
        again = optimize_fixed_order(small_objective)
        assert again.p_succ == optimum.p_succ

    def test_evaluate_comb_on_labeled_pairs(self, optimum):
        pairs = sample_pairs(RandomSource(15), 50, 50)
        score = evaluate_comb(optimum.comb, pairs)
        assert 0.85 <= score <= 1.0

    def test_evaluate_comb_rejects_unlabeled(self, optimum):
        pairs = sample_pairs(RandomSource(16), 1, 1)
        object.__setattr__(pairs[0], "label", Verdict.NEITHER)
        with pytest.raises(ValueError):
            evaluate_comb(optimum.comb, pairs)


class TestSwitchExceedsBound:
    def test_switch_is_perfect_where_comb_is_not(self):
        pairs = sample_pairs(RandomSource(17), 25, 25)
        for pair in pairs:
            out = exit_probabilities(pair.u1, pair.u2)
            correct = out.p0 if pair.label is Verdict.COMMUTE else out.p1
            assert correct >= 1 - 1e-10
