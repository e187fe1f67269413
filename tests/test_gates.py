import csv
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from qswitch.gates import (
    PairStack,
    RandomSource,
    classify_pair,
    haar_random_unitaries,
    pairs_to_csv,
    sample_pairs,
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

    def test_singular_draws_are_redrawn(self):
        class ZerosFirst:
            """A stream whose first draws (one real and one imaginary part) are all zero."""

            def __init__(self):
                self.gen, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls <= 2 else self.gen.standard_normal(shape)

        rng = SimpleNamespace(generator=ZerosFirst())
        us = haar_random_unitaries(rng, 3)
        assert rng.generator.calls == 4
        assert np.abs(us @ us.mT.conj() - np.eye(2)).max() <= 1e-12


def matmul_sample_pairs(seed, n_commuting, n_anticommuting):
    """``sample_pairs`` as one product per class and gate: (R * [1, e^{i theta_k}]) @ R^dag for
    each phase of a commuting pair, then R @ SZ @ R^dag and R @ SY @ R^dag."""
    rng = RandomSource(seed)
    rs = haar_random_unitaries(rng, n_commuting)
    phases = np.exp(1j * rng.generator.uniform(0.0, 2.0 * np.pi, size=(n_commuting, 2)))
    c1, c2 = ((rs * np.stack([np.ones_like(p), p], axis=-1)[:, None, :]) @ rs.mT.conj() for p in phases.T)
    rs = haar_random_unitaries(rng, n_anticommuting)
    a1, a2 = rs @ SZ @ rs.mT.conj(), rs @ SY @ rs.mT.conj()
    return np.concatenate([c1, a1]), np.concatenate([c2, a2])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_pairs_equal_the_matmul_construction(seed):
    for sizes in [(1000, 1000), (0, 1000), (1000, 0)]:
        pairs = sample_pairs(RandomSource(seed), *sizes)
        u1, u2 = matmul_sample_pairs(seed, *sizes)
        assert np.array_equal(pairs.u1, u1) and np.array_equal(pairs.u2, u2)


def forced_pairs(thetas, identity_basis=False):
    """``sample_pairs`` of len(thetas) commuting pairs whose phases are ``thetas`` (n, 2); the
    bases are Haar draws, or with ``identity_basis`` every Ginibre draw is I, so R = I."""
    thetas = np.asarray(thetas, dtype=float)

    class ForcedStream:
        def __init__(self):
            self.gen, self.draws = np.random.default_rng(2), 0

        def standard_normal(self, shape):
            self.draws += 1  # odd draws are real parts, even draws imaginary parts
            if not identity_basis:
                return self.gen.standard_normal(shape)
            return np.broadcast_to(np.eye(2) * (self.draws % 2), shape)

        def uniform(self, low, high, size):
            assert (low, high, size) == (0.0, 2.0 * np.pi, thetas.shape)
            return thetas

    return sample_pairs(SimpleNamespace(generator=ForcedStream(), seed=None), len(thetas), 0)


class TestPairConstructors:
    def test_commuting_pairs_commute(self):
        for pair in sample_pairs(RandomSource(1), 200, 0):
            assert pair.label is Verdict.COMMUTE
            assert comm_norm(pair.u1, pair.u2) <= 1e-10

    def test_forced_zero_thetas(self):
        # theta = 0 gives the identity in any eigenbasis
        pairs = forced_pairs(np.zeros((3, 2)))
        gates = np.concatenate([pairs.u1, pairs.u2])
        assert frobenius_distance_up_to_phase(gates, np.broadcast_to(ID2, gates.shape)).max() <= 1e-12

    def test_forced_basis_identity_theta_pi(self):
        gate = forced_pairs([[np.pi, np.pi]], identity_basis=True).u1[0]
        assert frobenius_distance_up_to_phase(gate, SZ) <= 1e-12

    def test_anticommuting_pairs_anticommute(self):
        for pair in sample_pairs(RandomSource(4), 0, 200):
            assert pair.label is Verdict.ANTICOMMUTE
            assert anti_norm(pair.u1, pair.u2) <= 1e-10
            # conjugated Paulis stay Hermitian, traceless and unitary
            for gate in (pair.u1, pair.u2):
                assert np.linalg.norm(gate - gate.conj().T) <= 1e-12
                assert abs(np.trace(gate)) <= 1e-12

    def test_forced_basis_identity(self):
        # in the basis R = I, theta = 0 gives I and theta = pi gives Z exactly
        pair = forced_pairs([[0.0, np.pi]], identity_basis=True)[0]
        assert np.allclose(pair.u1, ID2)
        assert np.allclose(pair.u2, SZ)

    def test_commutator_of_anticommuting_pair_is_unitary(self):
        for pair in sample_pairs(RandomSource(6), 0, 50):
            half_comm = (pair.u1 @ pair.u2 - pair.u2 @ pair.u1) / 2.0
            assert np.linalg.norm(half_comm @ half_comm.conj().T - np.eye(2)) <= 1e-10

    def test_stream_determinism(self):
        pairs_a = sample_pairs(RandomSource(9), 5, 5)
        pairs_b = sample_pairs(RandomSource(9), 5, 5)
        for a, b in zip(pairs_a, pairs_b):
            assert np.array_equal(a.u1, b.u1)
            assert np.array_equal(a.u2, b.u2)

    def test_classes_generically_disjoint(self):
        min_anti = min(anti_norm(p.u1, p.u2) for p in sample_pairs(RandomSource(10), 500, 0))
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
        u1 = np.concatenate([pairs.u1, [SX, SX]])  # a NEITHER pair among them
        u2 = np.concatenate([pairs.u2, [HAD, ID2]])
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


class TestPairStack:
    def test_empty(self):
        pairs = sample_pairs(RandomSource(0), 0, 0)
        assert len(pairs) == 0 and list(pairs) == []
        assert pairs.u1.shape == pairs.u2.shape == (0, 2, 2)
        assert np.issubdtype(pairs.port.dtype, np.integer) and pairs.port.shape == (0,)

    @pytest.mark.parametrize("u1, u2, port", [
        (np.stack([SX, SY]), np.stack([SX]), [0, 1]),  # unequal stacks
        (np.stack([SX, SY]), np.stack([SX, SY]), [0]),  # fewer ports than pairs
        (SX, SY, 0),  # one pair is not a stack
        (np.eye(3)[None], np.eye(3)[None], [0]),  # not 2x2
        (np.stack([SX, SY]), np.stack([SX, SY]), [[0, 1]]),
        (np.stack([SX, SY]), np.stack([SX, SY]), [0, 2]),  # NEITHER has no port
        (np.stack([SX, SY]), np.stack([SX, SY]), [0.0, 1.0]),
        (np.stack([SX, SY]), np.stack([SX, SY]), [False, True]),
    ], ids=["unequal", "few-ports", "one-pair", "3x3", "2d-port", "port-2", "float-port", "bool-port"])
    def test_rejects_malformed_stacks(self, u1, u2, port):
        with pytest.raises(ValueError):
            PairStack(u1, u2, port)

    @pytest.mark.parametrize("rows", [("1",), ("1", "2", "3"), ()])
    def test_rejects_rows_of_another_length(self, rows):
        with pytest.raises(ValueError, match=f"got {len(rows)} for 2 pairs"):
            PairStack(np.stack([SX, SX]), np.stack([SX, SY]), [0, 1], rows=rows)
        assert PairStack(np.stack([SX, SX]), np.stack([SX, SY]), [0, 1], rows=("1", "2")).rows == ("1", "2")

    def test_views_and_write_back(self):
        pairs = sample_pairs(RandomSource(3), 2, 1)
        assert [pair.label for pair in pairs] == [Verdict.COMMUTE] * 2 + [Verdict.ANTICOMMUTE]
        assert pairs[-1].label is Verdict.ANTICOMMUTE
        assert np.shares_memory(pairs[1].u2, pairs.u2)
        gates = pairs.u1[0].copy(), pairs.u2[0].copy()
        pairs[0] = dataclasses.replace(pairs[0], label=Verdict.ANTICOMMUTE)
        assert pairs.port.tolist() == [1, 0, 1]
        assert np.array_equal(pairs.u1[0], gates[0]) and np.array_equal(pairs.u2[0], gates[1])
        pairs[1] = pairs[2]
        assert pairs.port.tolist() == [1, 1, 1]
        assert np.array_equal(pairs.u1[1], pairs.u1[2]) and np.array_equal(pairs.u2[1], pairs.u2[2])


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        pairs = sample_pairs(RandomSource(12), 2, 2)
        path = tmp_path / "pairs.csv"
        pairs_to_csv(pairs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + 4 pairs
        assert rows[0][:2] == ["index", "label"] and rows[0][-1] == "seed"
        assert [row[:2] for row in rows[1:]] == [
            ["0", "COMMUTE"], ["1", "COMMUTE"], ["2", "ANTICOMMUTE"], ["3", "ANTICOMMUTE"]
        ]
        for row, u1, u2 in zip(rows[1:], pairs.u1, pairs.u2):
            # each float is written as its repr, so it reads back exactly
            parts = [float(part) for z in (*u1.reshape(-1), *u2.reshape(-1)) for part in (z.real, z.imag)]
            assert [float(x) for x in row[2:18]] == parts
            assert row[18:] == ["12"]

    def test_csv_of_table_pairs(self, tmp_path):
        # table pairs record their table row, not a seed: the seed cell is empty
        path = tmp_path / "table.csv"
        pairs_to_csv(table_gate_pairs(), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "seed"
        assert len(rows) == 101
        assert all(row[-1] == "" for row in rows[1:])
