"""End-to-end acceptance checks for the full toolkit.

Each test prints a single PASS/FAIL line for its criterion, so running

    pytest tests/test_acceptance.py -v -s

gives a one-page scoreboard.  Shared artifacts (the exact class-averaged
objective, the optimized comb, and the noisy suite reports) are computed once
per module.
"""

import numpy as np
import pytest

from qswitch.comb import (
    build_comb_from_circuit,
    evaluate_comb,
    objective_operator,
    optimize_fixed_order,
    probability_from_comb,
    project_comb_affine,
)
from qswitch.experiment import NoiseParams, run_pauli_suite, run_random_suite, run_state_sweep
from qswitch.gates import RandomSource, haar_random_unitaries, sample_pairs, stack_pairs
from qswitch.linalg import frobenius_distance_up_to_phase, frobenius_norm
from qswitch.switch import (
    exit_probabilities,
    two_switch_output,
    two_switch_output_circuit,
)
from qswitch.waveplates import (
    load_pauli_table,
    load_random_pairs_table,
    table_gate_pairs,
    triple_to_unitary,
)

PAULI_BY_NAME = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def objective():
    return objective_operator()


@pytest.fixture(scope="module")
def bound(objective):
    return optimize_fixed_order(objective)


@pytest.fixture(scope="module")
def table_pairs():
    return table_gate_pairs()


@pytest.fixture(scope="module")
def noisy_reports():
    noise = NoiseParams()
    return {
        "pauli": run_pauli_suite(noise, RandomSource(0)),
        "random100": run_random_suite(noise, RandomSource(0)),
        "statesweep": run_state_sweep(noise, RandomSource(0)),
    }


def random_states(rng, n):
    psi = rng.generator.standard_normal((n, 2)) + 1j * rng.generator.standard_normal((n, 2))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def test_criterion_01_output_equivalence():
    rng = RandomSource(100)
    us = haar_random_unitaries(rng, 2000)
    psis = random_states(rng, 1000)
    worst = 0.0
    for k in range(1000):
        closed = two_switch_output(us[2 * k], us[2 * k + 1], psis[k])
        circuit = two_switch_output_circuit(us[2 * k], us[2 * k + 1], psis[k])
        worst = max(worst, float(np.linalg.norm(closed - circuit)))
    report(
        "criterion 1 (closed form vs controlled-order circuit)",
        worst <= 1e-12,
        f"max deviation {worst:.3e} over 1000 triples (tol 1e-12)",
    )


def test_criterion_02_perfect_discrimination_on_promise():
    pairs = sample_pairs(RandomSource(101), 10_000, 10_000)
    u1, u2, port = stack_pairs(pairs)
    out = exit_probabilities(u1, u2)
    correct = np.where(port == 0, out.p0, out.p1)
    worst = float(np.abs(correct - 1.0).max())
    wrong = sum(verdict is not pair.label for verdict, pair in zip(out.verdict, pairs))
    report(
        "criterion 2 (perfect discrimination on the promise)",
        wrong == 0 and worst <= 1e-9,
        f"{wrong} wrong verdicts over 20000 pairs, max |p-1| {worst:.3e} (tol 1e-9)",
    )


def test_criterion_03_pauli_angle_table():
    table = load_pauli_table()
    targets = np.array([[PAULI_BY_NAME[name]] * 2 for name in table.index])
    worst = float(frobenius_distance_up_to_phase(triple_to_unitary(table.angles), targets).max())
    report(
        "criterion 3 (Pauli plate-angle rows reconstruct their gate)",
        worst <= 1e-9,
        f"max phase-invariant distance {worst:.3e} (tol 1e-9)",
    )


def test_criterion_04_hundred_pair_table(table_pairs):
    c1, c2, a1, a2 = np.moveaxis(triple_to_unitary(load_random_pairs_table().angles), 1, 0)
    worst_alg = max(frobenius_norm(c1 @ c2 - c2 @ c1).max(), frobenius_norm(a1 @ a2 + a2 @ a1).max())
    u1, u2, port = stack_pairs(table_pairs)
    out = exit_probabilities(u1, u2)
    worst_succ = float((1.0 - np.where(port == 0, out.p0, out.p1)).max())
    report(
        "criterion 4 (100-pair angle table classifies and discriminates)",
        worst_alg <= 0.05 and worst_succ <= 1e-3,
        f"max (anti)commutator norm {worst_alg:.4f} (tol 0.05), "
        f"max success shortfall {worst_succ:.2e} (tol 1e-3)",
    )


def test_criterion_05_fixed_order_bound(bound):
    res = bound.residuals
    feasible = (
        res["hermiticity"] <= 1e-6
        and res["slot2"] <= 1e-6
        and res["slot1"] <= 1e-6
        and res["trace"] <= 1e-6
        and res["min_eigenvalue"] >= -1e-6
    )
    ok = abs(bound.p_succ - 0.9288) <= 0.003 and feasible
    report(
        "criterion 5 (fixed-order success bound)",
        ok,
        f"p_succ {bound.p_succ:.6f} (target 0.9288 +/- 0.003), "
        f"{bound.iterations} iterations, max residual "
        f"{max(res['hermiticity'], res['slot2'], res['slot1'], res['trace']):.2e}, "
        f"min eig {res['min_eigenvalue']:.2e}",
    )


def test_criterion_06_bound_on_table_pairs(bound, table_pairs):
    value = evaluate_comb(bound.comb, table_pairs)
    report(
        "criterion 6 (optimal comb scored on the 100 table pairs)",
        abs(value - 0.9390) <= 0.005,
        f"mean success {value:.6f} (target 0.9390 +/- 0.005)",
    )


def test_criterion_07_noisy_and_noiseless_suites(noisy_reports):
    bands = {"pauli": (0.95, 0.995), "random100": (0.95, 0.995), "statesweep": (0.94, 0.995)}
    lines = []
    ok = True
    for which, (lo, hi) in bands.items():
        m = noisy_reports[which].mean_success
        ok = ok and lo <= m <= hi
        lines.append(f"{which} {m:.4f} in [{lo}, {hi}]")
    noiseless = NoiseParams.noiseless()
    pauli0 = run_pauli_suite(noiseless, RandomSource(1)).mean_success
    sweep0 = run_state_sweep(noiseless, RandomSource(1)).mean_success
    random0 = run_random_suite(noiseless, RandomSource(1)).mean_success
    # the 100-pair suite reconstructs gates from angles quantized to 0.01 deg,
    # so its noiseless success carries the same 1e-3 allowance as criterion 4
    ok = ok and pauli0 == 1.0 and sweep0 == 1.0 and abs(random0 - 1.0) <= 1e-3
    lines.append(
        f"noiseless pauli {pauli0}, statesweep {sweep0} (exact 1.0), "
        f"random100 {random0:.8f} (1.0 within 1e-3)"
    )
    report("criterion 7 (noisy suite bands and noiseless limits)", ok, "; ".join(lines))


def test_criterion_08_gap_exceeds_three_sigma(noisy_reports):
    rep = noisy_reports["random100"]
    gap = rep.mean_success - 0.9288
    ok = gap > 3 * rep.success_std
    report(
        "criterion 8 (noisy switch beats the fixed-order bound)",
        ok,
        f"gap {gap:.4f} vs 3 sigma = {3 * rep.success_std:.4f}",
    )


def test_criterion_09_comb_circuit_oracle():
    gen = np.random.default_rng(102)
    rng = RandomSource(103)
    worst = 0.0
    for _ in range(100):
        prep = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        prep /= np.linalg.norm(prep)
        v2 = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))[0]
        v3 = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))[0]
        w = build_comb_from_circuit(prep, v2, v3)
        us = haar_random_unitaries(rng, 2)
        u1, u2 = us[0], us[1]
        state = v3 @ np.kron(u2, np.eye(2)) @ v2 @ np.kron(u1, np.eye(2)) @ prep
        direct = float(np.linalg.norm(state.reshape(2, 2)[0]) ** 2)
        worst = max(worst, abs(probability_from_comb(w, u1, u2, 0) - direct))
    report(
        "criterion 9 (comb pairing reproduces statevector simulation)",
        worst <= 1e-12,
        f"max probability deviation {worst:.3e} over 100 circuits (tol 1e-12)",
    )


def test_criterion_10_property_suite():
    rng = RandomSource(104)
    us = haar_random_unitaries(rng, 400)
    psis = random_states(rng, 200)
    u1, u2, psi = us[0::2], us[1::2], psis[..., None]
    out = exit_probabilities(u1, u2, psis)
    worst_sum = float(np.abs(out.p0 + out.p1 - 1.0).max())
    anti = np.linalg.norm((u1 @ u2 + u2 @ u1) @ psi, axis=(-2, -1)) ** 2
    comm = np.linalg.norm((u1 @ u2 - u2 @ u1) @ psi, axis=(-2, -1)) ** 2
    worst_par = float(np.abs(anti + comm - 4.0).max())
    shifted = exit_probabilities(np.exp(0.3j) * u1, np.exp(-1.1j) * u2, psis)
    worst_phase = float(np.abs(shifted.p0 - out.p0).max())
    moment = float(
        np.mean(
            np.abs(np.trace(haar_random_unitaries(RandomSource(105), 100_000), axis1=-2, axis2=-1))
            ** 2
        )
    )
    gen = np.random.default_rng(106)
    x = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    x = x + x.conj().T
    p = project_comb_affine(x)
    idem = float(np.linalg.norm(project_comb_affine(p) - p))
    ok = (
        worst_sum <= 1e-12
        and worst_par <= 1e-12
        and worst_phase <= 1e-12
        and abs(moment - 1.0) <= 0.02
        and idem <= 1e-10
    )
    report(
        "criterion 10 (property bundle)",
        ok,
        f"p0+p1 dev {worst_sum:.2e}, parallelogram dev {worst_par:.2e}, "
        f"phase dev {worst_phase:.2e} (tol 1e-12); Haar moment {moment:.4f} "
        f"(1 +/- 0.02); projection idempotence {idem:.2e} (tol 1e-10)",
    )
