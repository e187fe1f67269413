import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch.experiment import (
    NoiseParams,
    calibrate_eta,
    corrected_probability,
    ideal_port_probabilities_with_noise,
    rotation_offset,
    run_pauli_suite,
    run_random_suite,
    run_state_sweep,
    simulate_counts,
    simulate_phase_sweep,
)
from qswitch.gates import RandomSource, anticommuting_pair, commuting_pair, haar_random_unitaries
from qswitch.linalg import ID2
from qswitch.switch import PLUS, exit_probabilities


class TestNoiseParams:
    def test_defaults_valid(self):
        NoiseParams()

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            NoiseParams(visibility=1.2)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            NoiseParams(eta=0.0)

    @given(
        name=st.sampled_from([f.name for f in dataclasses.fields(NoiseParams)]),
        value=st.sampled_from([np.nan, np.inf, -np.inf, "0.9", None, True, 1j]),
    )
    def test_rejects_non_finite_or_non_real(self, name, value):
        with pytest.raises(ValueError):
            NoiseParams(**{name: value})


class TestNoisyPortProbabilities:
    def test_noiseless_limit_matches_ideal(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(0)
        us = haar_random_unitaries(rng, 200)
        for k in range(100):
            u1, u2 = us[2 * k], us[2 * k + 1]
            p0, p1 = ideal_port_probabilities_with_noise(u1, u2, PLUS, noise)
            ideal = exit_probabilities(u1, u2)
            assert p0 == pytest.approx(ideal.p0, abs=1e-12)
            assert p1 == pytest.approx(ideal.p1, abs=1e-12)

    def test_zero_visibility_is_incoherent(self):
        noise = NoiseParams(visibility=0.0, phase_drift_per_degree=0.0, phase_drift_per_minute=0.0)
        rng = RandomSource(1)
        us = haar_random_unitaries(rng, 20)
        for k in range(10):
            p0, p1 = ideal_port_probabilities_with_noise(us[2 * k], us[2 * k + 1], PLUS, noise)
            assert p0 == pytest.approx(0.5, abs=1e-12)
            assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_anticommuting_fringe_floor(self):
        noise = NoiseParams(phase_drift_per_degree=0.0, phase_drift_per_minute=0.0)
        pair = anticommuting_pair(RandomSource(2))
        _, p1 = ideal_port_probabilities_with_noise(pair.u1, pair.u2, PLUS, noise)
        assert p1 >= (1 + noise.visibility) / 2 - 1e-12


class TestSimulateCounts:
    def test_noiseless_anticommuting_all_port1(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(3)
        pair = anticommuting_pair(rng)
        rec = simulate_counts(pair.u1, pair.u2, PLUS, noise, rng)
        assert rec.c0 == 0 and rec.c1 > 0

    def test_noiseless_commuting_all_port0(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(4)
        pair = commuting_pair(rng)
        rec = simulate_counts(pair.u1, pair.u2, PLUS, noise, rng)
        assert rec.c1 == 0 and rec.c0 > 0

    def test_thinning_expectation(self):
        noise = NoiseParams(
            visibility=1.0, phase_drift_per_degree=0.0, phase_drift_per_minute=0.0, eta=0.7
        )
        rng = RandomSource(5)
        pair = anticommuting_pair(rng)
        total = sum(
            simulate_counts(pair.u1, pair.u2, PLUS, noise, rng).c1 for _ in range(50)
        )
        assert total / 50 == pytest.approx(0.7 * 40000, rel=0.01)

    def test_deterministic_under_seed(self):
        noise = NoiseParams()
        rec_a = simulate_counts(ID2, ID2, PLUS, noise, RandomSource(6))
        rec_b = simulate_counts(ID2, ID2, PLUS, noise, RandomSource(6))
        assert (rec_a.c0, rec_a.c1) == (rec_b.c0, rec_b.c1)


class TestCorrectedProbability:
    def test_pure_port0(self):
        assert corrected_probability(4000, 0, 0.7) == 1.0

    def test_pure_port1(self):
        assert corrected_probability(0, 2800, 0.7) == 0.0

    def test_balanced(self):
        assert corrected_probability(700, 490, 0.7) == pytest.approx(0.5)

    def test_zero_counts(self):
        with pytest.raises(ValueError):
            corrected_probability(0, 0, 0.7)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            corrected_probability(1, 1, 0.0)

    def test_unbiased_in_expectation(self):
        # estimator mean over many repetitions stays within 3 standard errors
        gen = np.random.default_rng(7)
        p0_true, eta, n = 0.3, 0.7, 40000
        reps = 10_000
        n1 = gen.binomial(n, 1 - p0_true, size=reps)
        c1 = gen.binomial(n1, eta)
        estimates = (n - n1) / ((n - n1) + c1 / eta)
        stderr = estimates.std() / np.sqrt(reps)
        assert abs(estimates.mean() - p0_true) <= 3 * stderr + 1e-4


class TestCalibrateEta:
    @pytest.mark.parametrize("eta", [0.7, 1.0])
    def test_recovers_eta(self, eta):
        rng = RandomSource(8)
        sweep = simulate_phase_sweep(NoiseParams(eta=eta), rng)
        assert calibrate_eta(sweep) == pytest.approx(eta, abs=0.01)

    def test_degenerate_sweep(self):
        rng = RandomSource(9)
        noise = NoiseParams()
        records = [simulate_counts(ID2, ID2, PLUS, noise, rng) for _ in range(5)]
        with pytest.raises(ValueError):
            calibrate_eta(records)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            calibrate_eta([])


class TestRotationOffset:
    def test_zero_config(self):
        assert rotation_offset((0, 0, 0, 0, 0, 0)) == 0.0

    def test_wrapping(self):
        # a quarter plate at 180 deg and a half plate at 90 deg are both home
        assert rotation_offset((180, 90, 0, 0, 0, 0)) == pytest.approx(0.0)


class TestSuites:
    def test_noiseless_pauli_perfect(self):
        report = run_pauli_suite(NoiseParams.noiseless(), RandomSource(10))
        assert report.mean_success == 1.0
        assert len(report.settings) == 16

    def test_calibrated_pauli_in_band(self):
        report = run_pauli_suite(NoiseParams(), RandomSource(11))
        assert 0.95 <= report.mean_success <= 0.995

    def test_visibility_monotonicity(self):
        low = run_pauli_suite(NoiseParams(visibility=0.9), RandomSource(12))
        high = run_pauli_suite(NoiseParams(visibility=0.994), RandomSource(12))
        assert low.mean_success < high.mean_success

    def test_report_determinism(self):
        a = run_pauli_suite(NoiseParams(), RandomSource(13)).to_json()
        b = run_pauli_suite(NoiseParams(), RandomSource(13)).to_json()
        assert a == b

    def test_random_suite_structure(self):
        report = run_random_suite(NoiseParams(), RandomSource(14))
        assert len(report.settings) == 100
        labels = {s.label for s in report.settings}
        assert labels == {"COMMUTE", "ANTICOMMUTE"}
        assert 0.95 <= report.mean_success <= 0.995

    def test_random_suite_explicit_pairs(self):
        rng = RandomSource(15)
        pairs = [commuting_pair(rng) for _ in range(3)] + [
            anticommuting_pair(rng) for _ in range(3)
        ]
        report = run_random_suite(NoiseParams.noiseless(), RandomSource(16), pairs=pairs)
        assert report.mean_success == 1.0

    def test_state_sweep_reports_per_state(self):
        report = run_state_sweep(NoiseParams(), RandomSource(17))
        assert len(report.settings) == 80
        per_state = report.extras["per_state_success"]
        assert set(per_state) == {"hwp0", "hwp10", "hwp20", "hwp30", "hwp40"}
        assert 0.94 <= report.mean_success <= 0.995

    def test_noiseless_state_sweep_perfect(self):
        report = run_state_sweep(NoiseParams.noiseless(), RandomSource(18))
        assert report.mean_success == 1.0
