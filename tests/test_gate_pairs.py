"""Every function that takes a pair of gates checks both in one pass.

The bad gate goes in either slot, and each function must reject it with the
validator's own message and no floating-point warning.  Gates broadcast: one
gate against a stack gives the per-pair results.
"""

import numpy as np
import pytest

from qswitch.comb import probability_from_comb
from qswitch.experiment import NoiseParams, ideal_port_probabilities_with_noise
from qswitch.gates import RandomSource, classify_pair, haar_random_unitaries, sample_pairs
from qswitch.linalg import ID2, SX, SZ
from qswitch.switch import PLUS, exit_probabilities, two_switch_output

from oracles import build_comb_from_circuit, fixed_order_apply, two_switch_output_circuit


def _comb():
    gen = np.random.default_rng(5)
    v2, v3 = (np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))).Q for _ in range(2))
    return build_comb_from_circuit(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), v2, v3)


COMB = _comb()


def _exit(a, b):
    out = exit_probabilities(a, b)
    return np.stack([out.p0, out.p1], axis=-1)


# each caller's result as an array over the stack; verdicts as their names
CALLERS = {
    "exit_probabilities": _exit,
    "two_switch_output": lambda a, b: two_switch_output(a, b, PLUS),
    "two_switch_output_circuit": lambda a, b: two_switch_output_circuit(a, b, PLUS),
    "fixed_order_apply": lambda a, b: fixed_order_apply(a, b, PLUS, "12"),
    "classify_pair": lambda a, b: np.vectorize(lambda v: v.value, otypes=[str])(classify_pair(a, b)),
    "probability_from_comb": lambda a, b: probability_from_comb(COMB, a, b, 1),
    "ideal_port_probabilities_with_noise": lambda a, b: ideal_port_probabilities_with_noise(
        a, b, PLUS, NoiseParams())[1],
}


def _with_entry(value):
    gate = ID2.copy()
    gate[0, 1] = value
    return gate


BAD_GATES = {
    "2I": (2.0 * ID2, "non-finite or above 1"),
    "nan": (_with_entry(np.nan), "non-finite or above 1"),
    "inf": (_with_entry(np.inf), "non-finite or above 1"),
    "1e200": (_with_entry(1e200), "non-finite or above 1"),
    "2x3": (np.zeros((2, 3)), r"expected square matrices, got shape \(2, 3\)"),
    "eye3": (np.eye(3), r"expected 2x2 gates, got shape \(3, 3\)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slot", [1, 2])
@pytest.mark.parametrize("bad", BAD_GATES, ids=list(BAD_GATES))
@pytest.mark.parametrize("caller", CALLERS, ids=list(CALLERS))
def test_bad_gate_in_either_slot(caller, bad, slot):
    gate, match = BAD_GATES[bad]
    pair = (gate, SZ) if slot == 1 else (SZ, gate)
    with pytest.raises(ValueError, match=match):
        CALLERS[caller](*pair)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("caller", CALLERS, ids=list(CALLERS))
def test_bad_gate_inside_a_stack(caller):
    us = haar_random_unitaries(RandomSource(2), 6)
    bad = us.copy()
    bad[4, 1, 1] = np.nan
    for pair in ((bad, us), (us, bad)):
        with pytest.raises(ValueError, match="non-finite or above 1"):
            CALLERS[caller](*pair)


def _assert_same(stacked, single):
    if stacked.dtype.kind == "U":
        assert stacked == single
    else:
        assert np.abs(stacked - single).max() <= 1e-15


@pytest.mark.parametrize("caller", CALLERS, ids=list(CALLERS))
def test_one_gate_against_a_stack(caller):
    f = CALLERS[caller]
    pairs = sample_pairs(RandomSource(12), 4, 4)
    us = np.concatenate([pairs.u1, pairs.u2, haar_random_unitaries(RandomSource(13), 4)])
    gate = us[3]
    for stacked, single in [(f(gate, us), lambda k: f(gate, us[k])),
                            (f(us, gate), lambda k: f(us[k], gate)),
                            (f(us, us[::-1]), lambda k: f(us[k], us[::-1][k]))]:
        assert len(stacked) == len(us)
        for k in range(len(us)):
            _assert_same(stacked[k], single(k))


@pytest.mark.parametrize("caller", CALLERS, ids=list(CALLERS))
def test_unequal_stacks_are_rejected(caller):
    us = haar_random_unitaries(RandomSource(14), 5)
    with pytest.raises(ValueError):
        CALLERS[caller](us[:2], us)


@pytest.mark.parametrize("caller", CALLERS, ids=list(CALLERS))
def test_empty_stack(caller):
    empty = np.empty((0, 2, 2))
    for pair in ((empty, empty), (empty, SX), (SX, empty)):
        assert len(CALLERS[caller](*pair)) == 0
