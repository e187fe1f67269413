import numpy as np
import pytest

from qswitch.gates import (
    RandomSource,
    anticommuting_pair,
    commuting_pair,
    haar_random_unitaries,
    sample_pairs,
)
from qswitch.linalg import HAD, ID2, SX, SY, SZ
from qswitch.switch import PLUS, Verdict, exit_probabilities, two_switch_output

from oracles import fixed_order_apply, two_switch_output_circuit


def random_states(rng, n):
    psi = rng.generator.standard_normal((n, 2)) + 1j * rng.generator.standard_normal((n, 2))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


class TestTwoSwitchOutput:
    def test_identity_pair_collapses_to_port0(self):
        out = two_switch_output(ID2, ID2, PLUS)
        assert np.allclose(out[:2], PLUS)
        assert np.allclose(out[2:], 0)

    def test_sx_sy_on_zero(self):
        psi = np.array([1, 0], dtype=complex)
        out = two_switch_output(SX, SY, psi)
        # control entirely in |1>, target i sigma_z |0> = i|0>
        assert np.allclose(out[:2], 0)
        assert np.allclose(out[2:], [1j, 0])

    def test_sx_hadamard_splits_evenly(self):
        for psi in random_states(RandomSource(0), 10):
            out = two_switch_output(SX, HAD, psi)
            assert np.linalg.norm(out[:2]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_matches_circuit_construction(self):
        rng = RandomSource(1)
        us = haar_random_unitaries(rng, 400)
        psis = random_states(rng, 200)
        for k in range(200):
            u1, u2 = us[2 * k], us[2 * k + 1]
            closed = two_switch_output(u1, u2, psis[k])
            circuit = two_switch_output_circuit(u1, u2, psis[k])
            assert np.linalg.norm(closed - circuit) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_stacked_states_match_per_state(self, n):
        # n = 2 and n = 4 are the stack sizes a matrix product could mistake for an operator
        rng = RandomSource(7)
        u1, u2 = haar_random_unitaries(rng, 2)
        psis = random_states(rng, n)

        def fixed_order(a, b, psi):
            return fixed_order_apply(a, b, psi, "12")

        for f in (two_switch_output, two_switch_output_circuit, fixed_order):
            stacked = f(u1, u2, psis)
            assert stacked.shape[0] == n
            for k in range(n):
                assert np.abs(stacked[k] - f(u1, u2, psis[k])).max() <= 1e-15

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            two_switch_output(2 * ID2, ID2, PLUS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError):
            exit_probabilities(SX, SZ, np.array([bad, 0.0]))

    @pytest.mark.parametrize("psi, match", [
        ([1.0, 1.0], "not normalized"),
        ([np.nan, 0.0], "non-finite"),
        ([1.0, 0.0, 0.0], "shape"),
    ])
    def test_rejects_bad_state(self, psi, match):
        with pytest.raises(ValueError, match=match):
            two_switch_output(SX, SZ, np.array(psi))
        with pytest.raises(ValueError, match=match):
            exit_probabilities(SX, SZ, np.array(psi))


class TestExitProbabilities:
    def test_pauli_examples(self):
        out = exit_probabilities(SX, SX)
        assert out.p0 == pytest.approx(1.0, abs=1e-12)
        assert out.verdict is Verdict.COMMUTE
        out = exit_probabilities(SX, SZ)
        assert out.p1 == pytest.approx(1.0, abs=1e-12)
        assert out.verdict is Verdict.ANTICOMMUTE

    def test_neither_pair_degenerate_flag(self):
        out = exit_probabilities(SX, HAD)
        assert out.p0 == pytest.approx(0.5, abs=1e-12)
        assert out.degenerate

    def test_probabilities_sum_to_one(self):
        rng = RandomSource(2)
        us = haar_random_unitaries(rng, 200)
        psis = random_states(rng, 100)
        for k in range(100):
            out = exit_probabilities(us[2 * k], us[2 * k + 1], psis[k])
            assert out.p0 + out.p1 == pytest.approx(1.0, abs=1e-12)

    def test_parallelogram_identity(self):
        rng = RandomSource(3)
        us = haar_random_unitaries(rng, 200)
        psis = random_states(rng, 100)
        for k in range(100):
            u1, u2 = us[2 * k], us[2 * k + 1]
            psi = psis[k]
            anti = np.linalg.norm((u1 @ u2 + u2 @ u1) @ psi) ** 2
            comm = np.linalg.norm((u1 @ u2 - u2 @ u1) @ psi) ** 2
            assert anti + comm == pytest.approx(4.0, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = RandomSource(4)
        us = haar_random_unitaries(rng, 100)
        for k in range(50):
            u1, u2 = us[2 * k], us[2 * k + 1]
            base = exit_probabilities(u1, u2)
            shifted = exit_probabilities(np.exp(0.3j) * u1, np.exp(-1.1j) * u2)
            assert shifted.p0 == pytest.approx(base.p0, abs=1e-12)

    def test_stacked_matches_per_pair(self):
        rng = RandomSource(6)
        us = haar_random_unitaries(rng, 200)
        pairs = [commuting_pair(rng), anticommuting_pair(rng)]
        u1 = np.concatenate([us[0::2], [p.u1 for p in pairs], [SX, SX]])
        u2 = np.concatenate([us[1::2], [p.u2 for p in pairs], [SZ, HAD]])
        psis = random_states(rng, len(u1))
        for psi in (None, psis):
            stacked = exit_probabilities(u1, u2, psi)
            assert stacked.verdict.shape == stacked.p0.shape == (len(u1),)
            for k in range(len(u1)):
                one = exit_probabilities(u1[k], u2[k], None if psi is None else psi[k])
                assert stacked.verdict[k] is one.verdict
                assert stacked.p0[k] == pytest.approx(one.p0, abs=1e-15)
                assert stacked.p1[k] == pytest.approx(one.p1, abs=1e-15)
                assert stacked.degenerate[k] == one.degenerate

    def test_default_state_is_plus_bit_for_bit(self):
        pairs = sample_pairs(RandomSource(8), 50, 50)
        for args in [(pairs.u1, pairs.u2), *((p.u1, p.u2) for p in pairs)]:
            default, explicit = exit_probabilities(*args), exit_probabilities(*args, PLUS)
            assert np.array_equal(default.p0, explicit.p0)
            assert np.array_equal(default.p1, explicit.p1)
            assert np.array_equal(default.verdict, explicit.verdict)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_the_written_out_formula_bit_for_bit(self, seed):
        # both orders from the pair array [U1; U2] by two products, then p0 and p1 as the
        # squared norms of the anti-commutator and commutator halves: every bit is pinned
        pairs = sample_pairs(RandomSource(seed), 1000, 1000)
        w = np.concatenate((pairs.u1, pairs.u2), axis=-2)
        v = w @ PLUS[..., None]
        y = w @ v.reshape(v.shape[:-2] + (2, 2)).mT
        ab, ba = y[..., :2, 1], y[..., 2:, 0]
        s, d = ab + ba, ab - ba
        p0, p1 = np.vecdot(s, s).real / 4.0, np.vecdot(d, d).real / 4.0
        verdicts = np.array([Verdict.COMMUTE, Verdict.ANTICOMMUTE], dtype=object)[(p0 < p1).astype(np.intp)]
        stacked = exit_probabilities(pairs.u1, pairs.u2)
        assert stacked.p0.tobytes() == p0.tobytes() and stacked.p1.tobytes() == p1.tobytes()
        assert np.array_equal(stacked.verdict, verdicts)
        for k, pair in enumerate(pairs):
            one = exit_probabilities(pair.u1, pair.u2)
            assert one.p0.tobytes() == p0[k].tobytes() and one.p1.tobytes() == p1[k].tobytes()
            assert one.verdict is verdicts[k]

    def test_lists_and_real_gates_give_the_bits_of_complex_arrays(self):
        pairs = sample_pairs(RandomSource(4), 3, 3)
        real = [np.eye(2), SX.real, SZ.real, HAD.real]
        cases = [(a, b) for a in real for b in real] + [(p.u1, p.u2) for p in pairs] + [(pairs.u1, pairs.u2)]
        for u1, u2 in cases:
            expected = exit_probabilities(u1.astype(complex), u2.astype(complex))
            for args in [(u1.tolist(), u2.tolist()), (u1.tolist(), u2), (u1, u2.tolist()), (u1, u2)]:
                got = exit_probabilities(*args)
                assert got.p0.tobytes() == expected.p0.tobytes() and got.p1.tobytes() == expected.p1.tobytes()
                assert np.array_equal(got.verdict, expected.verdict)

    def test_plus_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            PLUS[:] = [1.0, 0.0]
        assert np.array_equal(PLUS, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_empty_stack(self):
        empty = np.empty((0, 2, 2))
        out = exit_probabilities(empty, empty)
        assert out.p0.shape == out.p1.shape == out.verdict.shape == out.degenerate.shape == (0,)

    def test_state_independence_on_promise(self):
        rng = RandomSource(5)
        for _ in range(10):
            pair = commuting_pair(rng)
            for psi in random_states(rng, 100):
                assert exit_probabilities(pair.u1, pair.u2, psi).p0 >= 1 - 1e-10
            pair = anticommuting_pair(rng)
            for psi in random_states(rng, 100):
                assert exit_probabilities(pair.u1, pair.u2, psi).p1 >= 1 - 1e-10


class TestFixedOrderApply:
    def test_identity_slot(self):
        psi = PLUS
        u2 = HAD
        assert np.allclose(fixed_order_apply(ID2, u2, psi, "12"), u2 @ psi)

    def test_same_gate_any_order(self):
        psi = np.array([1, 0], dtype=complex)
        out = fixed_order_apply(SZ, SZ, psi, "21")
        assert abs(abs(np.vdot(out, psi)) - 1) < 1e-12

    def test_order_12_applies_u1_first(self):
        psi = np.array([1, 0], dtype=complex)
        out = fixed_order_apply(SX, SZ, psi, "12")
        assert np.allclose(out, [0, -1])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fixed_order_apply(SX, SZ, PLUS, "11")
