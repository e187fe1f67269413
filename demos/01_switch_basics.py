"""Discriminating commuting from anti-commuting gates with one query each.

Two unknown gates are applied in a superposition of the two possible orders,
controlled by an ancilla qubit.  Interfering the ancilla afterwards routes the
photon to exit port 0 when the gates commute and port 1 when they anti-commute
-- deterministically, with a single use of each gate.
"""

import numpy as np

from qswitch import RandomSource, exit_probabilities
from qswitch.gates import sample_pairs
from qswitch.linalg import SX, SY, SZ, ID2

print("Pauli examples")
for name, (u1, u2) in {
    "X, X  (commute)": (SX, SX),
    "I, Z  (commute)": (ID2, SZ),
    "X, Y  (anti-commute)": (SX, SY),
    "Y, Z  (anti-commute)": (SY, SZ),
}.items():
    out = exit_probabilities(u1, u2)
    print(f"  {name:24s} p0={out.p0:.3f}  p1={out.p1:.3f}  -> {out.verdict.value}")

print("\nRandom pairs from each promise class (seed 0), one call per class")
rng = RandomSource(0)
commuting, anticommuting = sample_pairs(rng, 3, 0), sample_pairs(rng, 0, 3)
out = exit_probabilities(commuting.u1, commuting.u2)
for p0, verdict in zip(out.p0, out.verdict):
    print(f"  commuting pair      p0={p0:.12f}  verdict={verdict.value}")
out = exit_probabilities(anticommuting.u1, anticommuting.u2)
for p1, verdict in zip(out.p1, out.verdict):
    print(f"  anti-commuting pair p1={p1:.12f}  verdict={verdict.value}")

print("\nThe verdict does not depend on the input state:")
pair = anticommuting[0]
gen = np.random.default_rng(1)
psi = gen.standard_normal((1000, 2)) + 1j * gen.standard_normal((1000, 2))
psi /= np.linalg.norm(psi, axis=1, keepdims=True)
worst = exit_probabilities(pair.u1, pair.u2, psi).p1.min()  # all 1000 states in one call
print(f"  minimum correct-port probability over 1000 random states: {worst:.12f}")
