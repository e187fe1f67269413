"""The 2-SWITCH: applying two gates in a control-qubit superposition of orders.

The joint state lives on control (x) target with index = 2*c + t.  Measuring
the control after the final Hadamard sends commuting gate pairs to port 0 and
anti-commuting pairs to port 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import both_orders, read_only, require_state

__all__ = [
    "Verdict",
    "SwitchOutcome",
    "PLUS",
    "PORT_VERDICTS",
    "two_switch_output",
    "exit_probabilities",
]

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


class Verdict(str, enum.Enum):
    COMMUTE = "COMMUTE"
    ANTICOMMUTE = "ANTICOMMUTE"
    NEITHER = "NEITHER"


# the verdict each exit port signals: a label's port is its index here
PORT_VERDICTS = np.array([Verdict.COMMUTE, Verdict.ANTICOMMUTE], dtype=object)
read_only(PLUS, PORT_VERDICTS)


@dataclass(frozen=True)
class SwitchOutcome:
    """Exit-port probabilities of the switch and the inferred promise class.

    For a stack of pairs every field is an array over the stack (``verdict``
    an object array of ``Verdict``); for one pair they are numpy scalars and
    the ``Verdict`` member itself.
    """

    p0: np.ndarray
    p1: np.ndarray
    verdict: np.ndarray | Verdict

    @property
    def degenerate(self) -> np.ndarray:
        """p0 == p1 to 1e-12, which cannot happen for gates satisfying the commute/anti-commute promise."""
        return abs(self.p0 - self.p1) <= 1e-12


def two_switch_output(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Joint output state (1/2)|0>{U1,U2}psi + (1/2)|1>[U1,U2]psi.

    Gates (..., 2, 2), checked in one pass, and states (..., 2) broadcast to a
    result (..., 4); both orders come from one product (``both_orders``).
    """
    ab, ba = both_orders(u1, u2, require_state(psi, 2))
    return np.concatenate((ab + ba, ab - ba), axis=-1) / 2.0


def exit_probabilities(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray | None = None) -> SwitchOutcome:
    """Port probabilities ||{U1,U2}psi||^2 / 4, ||[U1,U2]psi||^2 / 4 and the verdict,
    for one pair of gates or for stacks (..., 2, 2) of them and of states (..., 2)."""
    # PLUS is read-only and valid, so only a caller's state is checked
    ab, ba = both_orders(u1, u2, PLUS if psi is None else require_state(psi, 2))
    s, d = ab + ba, ab - ba
    p0, p1 = np.vecdot(s, s).real / 4.0, np.vecdot(d, d).real / 4.0
    return SwitchOutcome(p0, p1, PORT_VERDICTS.take(p0 < p1))

