"""Compiling polarization gates to quarter/half/quarter wave-plate angles.

Any single-qubit unitary factors (up to a global phase) as QWP(q2) HWP(h)
QWP(q1).  The decomposition here is closed-form, and the packaged angle
tables are checked against it: the four Pauli rows and the 50 commuting /
50 anti-commuting pairs all reconstruct their intended gates.
"""

import numpy as np

from qswitch import RandomSource, exit_probabilities
from qswitch.gates import haar_random_unitaries, stack_pairs
from qswitch.linalg import SY, frobenius_distance_up_to_phase
from qswitch.waveplates import decompose, table_gate_pairs, triple_to_unitary

q_first, h, q_last = angles = decompose(SY)
print("Pauli Y compiles to plate angles (degrees):")
print(f"  QWP {q_first:.2f}, HWP {h:.2f}, QWP {q_last:.2f}")
print(f"  reconstruction distance: "
      f"{frobenius_distance_up_to_phase(triple_to_unitary(angles), SY):.2e}")

print("\nRound-trip over 1000 Haar-random gates, as one stacked call:")
us = haar_random_unitaries(RandomSource(0), 1000)
worst = frobenius_distance_up_to_phase(triple_to_unitary(decompose(us)), us).max()
print(f"  worst phase-invariant Frobenius distance: {worst:.2e}")

print("\nPackaged 100-pair angle table:")
pairs = table_gate_pairs()
u1, u2, port = stack_pairs(pairs)
out = exit_probabilities(u1, u2)
success = np.where(port == 0, out.p0, out.p1)
print(f"  pairs: {len(pairs)} ({np.sum(port == 0)} commuting)")
print(f"  mean ideal switch success: {np.mean(success):.8f}")
print(f"  worst single pair:         {min(success):.8f}")
