import csv

import numpy as np
import pytest

from qswitch.gates import (
    RandomSource,
    _eigenphase_gates,
    anticommuting_pair,
    classify_pair,
    commuting_pair,
    haar_random_unitaries,
    pairs_to_csv,
    sample_pairs,
    stack_pairs,
)
from qswitch.linalg import HAD, ID2, SX, SY, SZ, frobenius_distance_up_to_phase
from qswitch.switch import Verdict
from qswitch.waveplates import table_gate_pairs


def comm_norm(a, b):
    return np.linalg.norm(a @ b - b @ a)


def anti_norm(a, b):
    return np.linalg.norm(a @ b + b @ a)


class TestHaarSampling:
    def test_unitarity(self):
        rng = RandomSource(0)
        us = haar_random_unitaries(rng, 10_000)
        resid = np.abs(us @ np.conjugate(np.swapaxes(us, -2, -1)) - np.eye(2)).max()
        assert resid <= 1e-10

    def test_determinism(self):
        a = haar_random_unitaries(RandomSource(42), 1)
        b = haar_random_unitaries(RandomSource(42), 1)
        assert np.array_equal(a, b)

    def test_single_matches_batch_distribution(self):
        rng = RandomSource(7)
        u = haar_random_unitaries(rng, 1)
        assert u.shape == (1, 2, 2)

    def test_recorded_state_replays_the_stream(self):
        rng = RandomSource(8)
        haar_random_unitaries(rng, 3)
        record = rng.record()
        expected = rng.generator.standard_normal(4)
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = record["state"]
        assert record["seed"] == 8
        assert np.array_equal(replay.standard_normal(4), expected)

    def test_trace_moment(self):
        # degree-1 Haar moment: the mean of |tr U|^2 over U(2) is 1
        rng = RandomSource(123)
        us = haar_random_unitaries(rng, 100_000)
        moment = np.mean(np.abs(np.trace(us, axis1=-2, axis2=-1)) ** 2)
        assert moment == pytest.approx(1.0, abs=0.02)


class TestPairConstructors:
    def test_commuting_pairs_commute(self):
        rng = RandomSource(1)
        for _ in range(200):
            pair = commuting_pair(rng)
            assert pair.label is Verdict.COMMUTE
            assert comm_norm(pair.u1, pair.u2) <= 1e-10

    def test_forced_zero_thetas(self):
        # theta = 0 gives the identity in any eigenbasis
        rs = haar_random_unitaries(RandomSource(2), 3)
        gates = _eigenphase_gates(rs, np.zeros(3))
        assert frobenius_distance_up_to_phase(gates, np.broadcast_to(ID2, gates.shape)).max() <= 1e-12

    def test_forced_basis_identity_theta_pi(self):
        gate = _eigenphase_gates(ID2[None], np.array([np.pi]))[0]
        assert frobenius_distance_up_to_phase(gate, SZ) <= 1e-12

    def test_anticommuting_pairs_anticommute(self):
        rng = RandomSource(4)
        for _ in range(200):
            pair = anticommuting_pair(rng)
            assert pair.label is Verdict.ANTICOMMUTE
            assert anti_norm(pair.u1, pair.u2) <= 1e-10
            # conjugated Paulis stay Hermitian, traceless and unitary
            for gate in (pair.u1, pair.u2):
                assert np.linalg.norm(gate - gate.conj().T) <= 1e-12
                assert abs(np.trace(gate)) <= 1e-12

    def test_forced_basis_identity(self):
        # in the basis R = I, theta = 0 gives I and theta = pi gives Z exactly
        gates = _eigenphase_gates(np.array([ID2, ID2]), np.array([0.0, np.pi]))
        assert np.allclose(gates[0], ID2)
        assert np.allclose(gates[1], SZ)

    def test_commutator_of_anticommuting_pair_is_unitary(self):
        rng = RandomSource(6)
        for _ in range(50):
            pair = anticommuting_pair(rng)
            half_comm = (pair.u1 @ pair.u2 - pair.u2 @ pair.u1) / 2.0
            assert np.linalg.norm(half_comm @ half_comm.conj().T - np.eye(2)) <= 1e-10

    def test_stream_determinism(self):
        pairs_a = sample_pairs(RandomSource(9), 5, 5)
        pairs_b = sample_pairs(RandomSource(9), 5, 5)
        for a, b in zip(pairs_a, pairs_b):
            assert np.array_equal(a.u1, b.u1)
            assert np.array_equal(a.u2, b.u2)

    def test_classes_generically_disjoint(self):
        rng = RandomSource(10)
        min_anti = min(anti_norm(p.u1, p.u2) for p in (commuting_pair(rng) for _ in range(500)))
        assert min_anti > 1e-6


class TestClassifyPair:
    def test_named_examples(self):
        assert classify_pair(SX, ID2) is Verdict.COMMUTE
        assert classify_pair(SX, SY) is Verdict.ANTICOMMUTE
        assert classify_pair(SX, HAD) is Verdict.NEITHER

    def test_conjugation_invariance(self):
        rng = RandomSource(11)
        cases = [(SX, ID2), (SX, SY), (SX, HAD)]
        for _ in range(20):
            r = haar_random_unitaries(rng, 1)[0]
            for u1, u2 in cases:
                base = classify_pair(u1, u2)
                conj = classify_pair(r @ u1 @ r.conj().T, r @ u2 @ r.conj().T, tol=1e-8)
                assert base is conj

    def test_stacked_matches_per_pair_calls(self):
        pairs = sample_pairs(RandomSource(14), 20, 20)
        u1, u2, _ = stack_pairs(pairs)
        u1 = np.concatenate([u1, [SX, SX]])  # a NEITHER pair among them
        u2 = np.concatenate([u2, [HAD, ID2]])
        stacked = classify_pair(u1.reshape(6, 7, 2, 2), u2.reshape(6, 7, 2, 2))
        assert stacked.shape == (6, 7) and stacked.dtype == object
        assert all(a is classify_pair(b1, b2) for a, b1, b2 in zip(stacked.reshape(-1), u1, u2))
        assert stacked.reshape(-1)[-2] is Verdict.NEITHER

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify_pair(SX, SY, tol=0.0)
        for u2 in (SY, SX):  # NaN is no tolerance, for either class
            with pytest.raises(ValueError):
                classify_pair(SX, u2, tol=float("nan"))
        # ||[A,B]||^2 + ||{A,B}||^2 = 8 for unitaries: from 2 on, a pair could be within both
        for tol in (2.0, 3.0, float("inf")):
            with pytest.raises(ValueError, match=r"tolerance must be in \(0, 2\)"):
                classify_pair(SX, SY, tol=tol)

    def test_largest_tolerance_still_separates(self):
        assert classify_pair(SX, SY, tol=1.99) is Verdict.ANTICOMMUTE
        assert classify_pair(SX, SX, tol=1.99) is Verdict.COMMUTE

    def test_empty_stack(self):
        verdicts = classify_pair(np.empty((0, 2, 2)), np.empty((0, 2, 2)))
        assert verdicts.shape == (0,) and verdicts.dtype == object


class TestStackPairs:
    def test_empty(self):
        u1, u2, port = stack_pairs([])
        assert u1.shape == u2.shape == (0, 2, 2)
        assert np.issubdtype(port.dtype, np.integer) and port.shape == (0,)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        pairs = sample_pairs(RandomSource(12), 2, 2)
        path = tmp_path / "pairs.csv"
        pairs_to_csv(pairs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + 4 pairs
        assert rows[0][:2] == ["index", "label"]
        first = rows[1]
        u1 = np.array([float(x) for x in first[2:10]]).view()
        rebuilt = (u1[0::2] + 1j * u1[1::2]).reshape(2, 2)
        assert np.allclose(rebuilt, pairs[0].u1)

    def test_csv_of_table_pairs(self, tmp_path):
        # table pairs record their table row, not a seed: the seed cell is empty
        path = tmp_path / "table.csv"
        pairs_to_csv(table_gate_pairs(), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "seed"
        assert len(rows) == 101
        assert all(row[-1] == "" for row in rows[1:])
