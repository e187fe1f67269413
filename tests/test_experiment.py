import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qswitch import experiment
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
from qswitch.gates import RandomSource, haar_random_unitaries, sample_pairs
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
        value=st.sampled_from([np.nan, np.inf, -np.inf, 10**400, "0.9", None, True, 1j]),
    )
    def test_rejects_non_finite_or_non_real(self, name, value):
        with pytest.raises(ValueError):
            NoiseParams(**{name: value})


class TestNoisyPortProbabilities:
    def test_noiseless_limit_matches_ideal(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(0)
        us = haar_random_unitaries(rng, 200)
        u1, u2 = us[0::2], us[1::2]
        p0, p1 = ideal_port_probabilities_with_noise(u1, u2, PLUS, noise)
        ideal = exit_probabilities(u1, u2)
        assert np.abs(p0 - ideal.p0).max() <= 1e-12
        assert np.abs(p1 - ideal.p1).max() <= 1e-12

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
        pair = sample_pairs(RandomSource(2), 0, 1)[0]
        _, p1 = ideal_port_probabilities_with_noise(pair.u1, pair.u2, PLUS, noise)
        assert p1 >= (1 + noise.visibility) / 2 - 1e-12


class TestSimulateCounts:
    def test_noiseless_anticommuting_all_port1(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(3)
        pair = sample_pairs(rng, 0, 1)[0]
        c0, c1 = simulate_counts(pair.u1, pair.u2, PLUS, noise, rng)
        assert c0 == 0 and c1 > 0

    def test_noiseless_commuting_all_port0(self):
        noise = NoiseParams.noiseless()
        rng = RandomSource(4)
        pair = sample_pairs(rng, 1, 0)[0]
        c0, c1 = simulate_counts(pair.u1, pair.u2, PLUS, noise, rng)
        assert c1 == 0 and c0 > 0

    def test_thinning_expectation(self):
        # E[C0] = lam (1 - p1) and E[C1] = lam p1 eta, on the fringe floor and mid-fringe
        rng = RandomSource(5)
        pair = sample_pairs(rng, 0, 1)[0]
        for phase, u1, u2 in ((np.pi, pair.u1, pair.u2), (np.pi / 2, ID2, ID2)):
            noise = NoiseParams(
                visibility=1.0, phase_setpoint=phase, phase_drift_per_degree=0.0,
                phase_drift_per_minute=0.0, eta=0.7,
            )
            _, p1 = ideal_port_probabilities_with_noise(u1, u2, PLUS, noise)
            counts = simulate_counts(u1, u2, PLUS, noise, rng, size=(50,))
            assert counts.shape == (50, 2)
            mean_c0, mean_c1 = counts.mean(axis=0)
            assert mean_c0 == pytest.approx(40000 * (1 - p1), rel=0.01, abs=1.0)
            assert mean_c1 == pytest.approx(0.7 * 40000 * p1, rel=0.01)

    def test_stack_and_repeat_shape(self):
        rng = RandomSource(5)
        us = haar_random_unitaries(rng, 6)
        counts = simulate_counts(us[0::2], us[1::2], PLUS, NoiseParams(), rng, size=(4,))
        assert counts.shape == (4, 3, 2)
        assert counts.dtype.kind == "i"

    def test_deterministic_under_seed(self):
        noise = NoiseParams()
        counts_a = simulate_counts(ID2, ID2, PLUS, noise, RandomSource(6))
        counts_b = simulate_counts(ID2, ID2, PLUS, noise, RandomSource(6))
        assert np.array_equal(counts_a, counts_b)

    @pytest.mark.parametrize("u1, psi, message", [
        (2 * ID2, PLUS, "above 1"),
        (0.5 * ID2, PLUS, "not unitary"),
        (np.full((2, 2), np.nan), PLUS, "non-finite"),
        (ID2, np.array([3.0, 0.0]), "above 1"),  # was hidden by the clip of p1
        (ID2, np.array([0.6, 0.0]), "not normalized"),
    ], ids=["twice-identity", "half-identity", "nan", "norm-3", "norm-0.6"])
    def test_rejects_invalid_gates_and_states(self, u1, psi, message):
        with pytest.raises(ValueError, match=message):
            simulate_counts(u1, ID2, psi, NoiseParams(), RandomSource(7))

    @pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams.noiseless()], ids=["drift", "no-drift"])
    @pytest.mark.parametrize("phase", [
        np.nan,
        np.array([0.0, np.inf]),
        -np.inf,
        np.array([np.pi, np.nan]),
    ], ids=["nan", "inf-in-stack", "neg-inf", "nan-in-stack"])
    def test_rejects_non_finite_phase(self, noise, phase):
        with pytest.raises(ValueError, match="finite phase"):
            ideal_port_probabilities_with_noise(ID2, ID2, PLUS, noise, phase)
        with pytest.raises(ValueError, match="finite phase"):
            simulate_counts(ID2, ID2, PLUS, noise, RandomSource(7), phase)


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
        for eta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                corrected_probability(10, 10, eta)

    @pytest.mark.parametrize("c0, c1", [
        (np.nan, 1), (np.inf, 1), (1, np.inf), (1, np.nan), ([5, np.nan], [1, 2]),
        (1e308, 1e308),  # once 0.0 with overflow warnings; the true value is 1/3
    ])
    def test_rejects_non_finite_counts(self, c0, c1):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            corrected_probability(c0, c1, 0.7)

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
        counts = simulate_counts(ID2, ID2, PLUS, noise, rng, size=(5,))
        with pytest.raises(ValueError):
            calibrate_eta(counts)

    @pytest.mark.parametrize("c0, c1, message", [
        ([1e5, -5e4, 3e4, -1e4], [-1e5, 6e4, -3e4, 1.2e4], "finite and nonnegative"),
        ([1e5, np.nan, 3e4, 1e4], [1e5, 6e4, 3e4, 1.2e4], "finite and nonnegative"),
        ([1e5, 5e4, 3e4, 1e4], [1e5, 6e4, np.inf, 1.2e4], "finite and nonnegative"),
        ([2e306, 7e306, 1.2e307, 7e306], [1e307, 5e306, 0, 5e306], "finite and nonnegative"),
        ([100, 99] * 3, [0, 100] * 3, "eta estimate 100.000 out of physical range"),
    ], ids=["negative", "nan", "inf", "huge", "eta-above-range"])
    def test_rejects_impossible_counts(self, c0, c1, message):
        # the negative sweep once gave eta = 1.061, an infinite count reached np.var, and the
        # huge sweep (the same at 1e7 gives eta = 1.0) overflowed np.var to "eta estimate nan";
        # the last sweep has fringe contrast, but C1 swings 100 times as far as C0
        with pytest.raises(ValueError, match=message):
            calibrate_eta(np.stack([c0, c1], axis=1))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            calibrate_eta(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            calibrate_eta([])

    def test_sweep_matches_per_point_draws(self):
        # the one-call sweep is the stream of 24 draws, one per phase, in order
        noise = NoiseParams(eta=0.7)
        sweep = simulate_phase_sweep(noise, RandomSource(8))
        assert sweep.shape == (24, 2)
        gen = RandomSource(8).generator
        for phase, counts in zip(np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False), sweep):
            point = dataclasses.replace(
                noise, phase_setpoint=phase, phase_drift_per_degree=0.0, phase_drift_per_minute=0.0
            )
            _, p1 = ideal_port_probabilities_with_noise(ID2, ID2, PLUS, point)
            lam = noise.pairs_per_setting * np.array([1.0 - p1, noise.eta * p1])
            assert np.array_equal(gen.poisson(lam), counts)


class TestRotationOffset:
    def test_zero_config(self):
        assert rotation_offset((0, 0, 0, 0, 0, 0)) == 0.0

    def test_wrapping(self):
        # a quarter plate at 180 deg and a half plate at 90 deg are both home
        assert rotation_offset((180, 90, 0, 0, 0, 0)) == pytest.approx(0.0)

    def test_half_periods_wrap_down_in_a_stack(self):
        # each plate wraps to [-period/2, period/2): +90 (quarter) and +45 (half) go to -90 and -45,
        # while -91 and -46 go to +89 and +44
        settings = np.array([[90, 45, 90, 90, 45, 90], [-91, -46, 0, 0, 0, 0]])
        assert rotation_offset(settings).tolist() == [-450.0, 133.0]

    @pytest.mark.parametrize("angles", [0.0, (0,) * 5, np.zeros((2, 7))], ids=["scalar", "five", "stack-of-seven"])
    def test_rejects_a_setting_without_six_angles(self, angles):
        with pytest.raises(ValueError, match=re.escape(f"expected six plate angles, got shape {np.shape(angles)}")):
            rotation_offset(angles)


class TestSuites:
    def test_noiseless_pauli_perfect(self):
        report = run_pauli_suite(NoiseParams.noiseless(), RandomSource(10))
        assert report.mean_success == 1.0
        assert len(report.ids) == len(report.success) == 16

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
        assert len(report.ids) == len(report.success) == 100
        labels = {label.value for label in report.labels}
        assert labels == {"COMMUTE", "ANTICOMMUTE"}
        assert 0.95 <= report.mean_success <= 0.995

    def test_csv_rows_sum_each_settings_repeats(self):
        report = run_pauli_suite(NoiseParams(), RandomSource(2))
        rows = report.csv_rows()
        assert [row[2:4] for row in rows[1:]] == [report.counts[:, k].sum(axis=0).tolist() for k in range(16)]
        assert all(type(c) is int for row in rows[1:] for c in row[2:4])
        empty = dataclasses.replace(
            report, ids=report.ids[:0], labels=report.labels[:0], counts=report.counts[:, :0],
            p0=report.p0[:0], p0_std=report.p0_std[:0], success=report.success[:0],
        )
        assert empty.csv_rows() == rows[:1]

    def test_random_suite_explicit_pairs(self):
        pairs = sample_pairs(RandomSource(15), 3, 3)
        report = run_random_suite(NoiseParams.noiseless(), RandomSource(16), pairs=pairs)
        assert report.mean_success == 1.0

    def test_random_suite_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="no pairs were given"):
            run_random_suite(NoiseParams(), RandomSource(16), pairs=[])

    def test_state_sweep_reports_per_state(self):
        report = run_state_sweep(NoiseParams(), RandomSource(17))
        assert len(report.ids) == len(report.success) == 80
        per_state = report.extras["per_state_success"]
        assert set(per_state) == {"hwp0", "hwp10", "hwp20", "hwp30", "hwp40"}
        assert 0.94 <= report.mean_success <= 0.995

    def test_per_state_success_is_each_states_block_mean(self):
        report = run_state_sweep(NoiseParams(), RandomSource(17))
        per_state = report.extras["per_state_success"]
        for k, angle in enumerate((0, 10, 20, 30, 40)):
            block = slice(16 * k, 16 * (k + 1))
            assert all(i.startswith(f"hwp{angle}:") for i in report.ids[block])
            assert per_state[f"hwp{angle}"] == round(float(np.mean(report.success[block])), 10)
        assert abs(np.mean(list(per_state.values())) - report.mean_success) <= 1e-10

    def test_summary_numbers_follow_the_arrays(self):
        report = run_pauli_suite(NoiseParams(), RandomSource(19))
        assert report.counts.shape == (report.repeats, 16, 2)
        report.success = report.success[:8]
        report.p0_std = report.p0_std[8:]
        assert report.mean_success == float(np.mean(report.success))
        assert report.success_std == float(np.max(report.p0_std))
        assert report.setting_spread == float(np.std(report.success))

    @pytest.mark.parametrize("runner, reference", [
        (run_pauli_suite, 0.983944),
        (run_random_suite, 0.986545),
        (run_state_sweep, 0.983957),
    ])
    def test_twenty_seed_mean_matches_reference(self, runner, reference):
        # reference: the 20-seed means of the Poisson -> binomial -> binomial
        # count stream, which the two-Poisson stream must match in distribution
        means = np.array([runner(NoiseParams(), RandomSource(s)).mean_success for s in range(20)])
        combined_stderr = np.sqrt(2.0) * means.std(ddof=1) / np.sqrt(20)
        assert abs(means.mean() - reference) <= 5 * combined_stderr

    def test_pauli_settings_reject_a_pair_of_neither_class(self, monkeypatch):
        table = experiment.load_pauli_table()
        angles = table.angles.copy()
        angles[table.index.index("X"), 0] = (10.0, 20.0, 30.0)  # no Pauli gate: it commutes with I only
        monkeypatch.setattr(experiment, "load_pauli_table", lambda: dataclasses.replace(table, angles=angles))
        with pytest.raises(ValueError, match="setting XX: the pair neither commutes nor anti-commutes"):
            experiment._plus_pauli_settings.__wrapped__()

    def test_noiseless_state_sweep_perfect(self):
        report = run_state_sweep(NoiseParams.noiseless(), RandomSource(18))
        assert report.mean_success == 1.0
