"""Desk-scale toolkit for gate-order-superposition commutation testing.

Submodules
----------
linalg      dense complex linear algebra, Choi vectors
switch      the 2-SWITCH protocol and exit probabilities
gates       Haar sampling, the commuting / anti-commuting pair classes
waveplates  Jones calculus, quarter-half-quarter compilation, angle tables
experiment  Mach-Zehnder Monte Carlo suites with efficiency correction
comb        fixed-order-circuit operators and the success-bound SDP
cli         command-line front end
"""

from .gates import GatePair, RandomSource, classify_pair
from .switch import SwitchOutcome, Verdict, exit_probabilities, two_switch_output
from .waveplates import decompose, hwp, qwp, triple_to_unitary

__version__ = "0.1.0"

__all__ = [
    "GatePair",
    "RandomSource",
    "SwitchOutcome",
    "Verdict",
    "classify_pair",
    "decompose",
    "exit_probabilities",
    "hwp",
    "qwp",
    "triple_to_unitary",
    "two_switch_output",
]
