"""The 2-SWITCH: applying two gates in a control-qubit superposition of orders.

The joint state lives on control (x) target with index = 2*c + t.  Measuring
the control after the final Hadamard sends commuting gate pairs to port 0 and
anti-commuting pairs to port 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import HAD, ID2, both_orders, require_state, require_unitary_pair, tensor

__all__ = [
    "Verdict",
    "SwitchOutcome",
    "PLUS",
    "two_switch_output",
    "two_switch_output_circuit",
    "exit_probabilities",
    "fixed_order_apply",
]

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
PLUS.flags.writeable = False


class Verdict(str, enum.Enum):
    COMMUTE = "COMMUTE"
    ANTICOMMUTE = "ANTICOMMUTE"
    NEITHER = "NEITHER"


_BY_PORT = np.array([Verdict.COMMUTE, Verdict.ANTICOMMUTE], dtype=object)


@dataclass(frozen=True)
class SwitchOutcome:
    """Exit-port probabilities of the switch and the inferred promise class.

    For a stack of pairs every field is an array over the stack (``verdict``
    an object array of ``Verdict``); for one pair they are numpy scalars and
    the ``Verdict`` member itself.  ``degenerate`` flags p0 == p1, which cannot
    happen for gates satisfying the commute/anti-commute promise.
    """

    p0: np.ndarray
    p1: np.ndarray
    verdict: np.ndarray | Verdict
    degenerate: np.ndarray


def two_switch_output(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Joint output state (1/2)|0>{U1,U2}psi + (1/2)|1>[U1,U2]psi.

    Gates (..., 2, 2), checked in one pass, and states (..., 2) broadcast to a
    result (..., 4); both orders come from one product (``both_orders``).
    """
    ab, ba = both_orders(u1, u2, require_state(psi, 2))
    return np.concatenate((ab + ba, ab - ba), axis=-1) / 2.0


def two_switch_output_circuit(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Brute-force construction: controlled gate orders, then Hadamard.

    Starts from (|0>+|1>)/sqrt2 (x) psi, applies U1 U2 on the c=0 branch and
    U2 U1 on the c=1 branch, then a Hadamard on the control.
    """
    u1, u2 = np.split(require_unitary_pair(u1, u2), 2, axis=-2)
    joint = tensor(PLUS, require_state(psi, 2))[..., None]
    controlled = tensor(np.diag([1.0, 0.0]), u1 @ u2) + tensor(np.diag([0.0, 1.0]), u2 @ u1)
    return (tensor(HAD, ID2) @ controlled @ joint)[..., 0]


def exit_probabilities(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray | None = None) -> SwitchOutcome:
    """Port probabilities ||{U1,U2}psi||^2 / 4, ||[U1,U2]psi||^2 / 4 and the verdict,
    for one pair of gates or for stacks (..., 2, 2) of them and of states (..., 2)."""
    # PLUS is read-only and valid, so only a caller's state is checked
    ab, ba = both_orders(u1, u2, PLUS if psi is None else require_state(psi, 2))
    s, d = ab + ba, ab - ba
    p0, p1 = np.vecdot(s, s).real / 4.0, np.vecdot(d, d).real / 4.0
    verdict = _BY_PORT[(p0 < p1).astype(np.intp)]
    return SwitchOutcome(p0=p0, p1=p1, verdict=verdict, degenerate=abs(p0 - p1) <= 1e-12)


def fixed_order_apply(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray, order: int | str) -> np.ndarray:
    """Apply the gates in a definite order: '12' means U1 acts first (U2 U1 psi)."""
    orders = dict(zip(("21", "12"), both_orders(u1, u2, require_state(psi, 2))))
    if str(order) not in orders:
        raise ValueError(f"order must be '12' or '21', got {order!r}")
    return orders[str(order)]
