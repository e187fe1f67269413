"""The 2-SWITCH: applying two gates in a control-qubit superposition of orders.

The joint state lives on control (x) target with index = 2*c + t.  Measuring
the control after the final Hadamard sends commuting gate pairs to port 0 and
anti-commuting pairs to port 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import HAD, ID2, require_state, require_unitary, tensor

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


class Verdict(str, enum.Enum):
    COMMUTE = "COMMUTE"
    ANTICOMMUTE = "ANTICOMMUTE"
    NEITHER = "NEITHER"


@dataclass(frozen=True)
class SwitchOutcome:
    """Exit-port probabilities of the switch and the inferred promise class.

    ``degenerate`` flags p0 == p1, which cannot happen for gates satisfying
    the commute/anti-commute promise.
    """

    p0: float
    p1: float
    verdict: Verdict
    degenerate: bool = False


def two_switch_output(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Joint output state (1/2)|0>{U1,U2}psi + (1/2)|1>[U1,U2]psi.

    ``u1`` and ``u2`` may be stacks (..., 2, 2) of gates; the result then has
    shape (..., 4).
    """
    u1 = require_unitary(u1)
    u2 = require_unitary(u2)
    psi = require_state(psi, 2)
    anti = (u1 @ u2 + u2 @ u1) @ psi / 2.0
    comm = (u1 @ u2 - u2 @ u1) @ psi / 2.0
    return np.concatenate([anti, comm], axis=-1)


def two_switch_output_circuit(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Brute-force construction: controlled gate orders, then Hadamard.

    Starts from (|0>+|1>)/sqrt2 (x) psi, applies U1 U2 on the c=0 branch and
    U2 U1 on the c=1 branch, then a Hadamard on the control.
    """
    u1 = require_unitary(u1)
    u2 = require_unitary(u2)
    psi = require_state(psi, 2)
    joint = tensor(PLUS, psi)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    controlled = tensor(p0, u1 @ u2) + tensor(p1, u2 @ u1)
    return tensor(HAD, ID2) @ controlled @ joint


def exit_probabilities(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray | None = None) -> SwitchOutcome:
    """Port probabilities and verdict for one run of the switch protocol."""
    if psi is None:
        psi = PLUS
    out = two_switch_output(u1, u2, psi)
    p0 = float(np.linalg.norm(out[0:2]) ** 2)
    p1 = float(np.linalg.norm(out[2:4]) ** 2)
    degenerate = abs(p0 - p1) <= 1e-12
    verdict = Verdict.COMMUTE if p0 >= p1 else Verdict.ANTICOMMUTE
    return SwitchOutcome(p0=p0, p1=p1, verdict=verdict, degenerate=degenerate)


def fixed_order_apply(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray, order: int | str) -> np.ndarray:
    """Apply the gates in a definite order: '12' means U1 acts first."""
    u1 = require_unitary(u1)
    u2 = require_unitary(u2)
    psi = require_state(psi, 2)
    order = str(order)
    if order == "12":
        return u2 @ (u1 @ psi)
    if order == "21":
        return u1 @ (u2 @ psi)
    raise ValueError(f"order must be '12' or '21', got {order!r}")
