"""Fixed-order-circuit (quantum comb) operators and the success-probability SDP.

A comb W is a 32x32 PSD operator on five qubit wires P1..P5 (into gate one,
out of gate one, into gate two, out of gate two, measured output) satisfying

    tr_P5 W = I_P4 (x) W2,   tr_P3 W2 = I_P2 (x) W1,   tr W1 = 1.

The pairing with a gate pair and measurement outcome is

    p(i | U1, U2) = tr[ (choi(U1) (x) choi(U2) (x) |i><i|) W ],

with the unnormalized trace-2 Choi convention.  The transposition placement
hidden in that formula is pinned operationally by the tests: a W built from
an explicit prepare/route/measure circuit must reproduce direct statevector
simulation of that circuit exactly through ``probability_from_comb``.

The objective Omega averages the score operators over the two promise
classes.  Omega and the comb constraints share a symmetry, so max tr(W Omega)
over combs is solved by ADMM in 20 real coordinates of the symmetric subspace
(see "block coordinates" below), where Omega is diagonal blocks with seven
exact rational entries.  The solve returns a certified interval around the
optimum and the valid 32x32 comb that attains its lower end.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gates import PairStack
# unused here: comb does not sample, but perfbench traces Haar sampling under this name
from .gates import haar_random_unitaries  # noqa: F401
from .linalg import choi_vector, read_only, require_unitary_pair

__all__ = [
    "CombResult",
    "objective_operator",
    "probability_from_comb",
    "comb_residuals",
    "project_comb_affine",
    "optimize_fixed_order",
    "evaluate_comb",
]

DIM = 32

# ADMM settings, for an objective at Omega's scale: penalty and the stopping rule's certified gap
RHO = 0.5
GAP_TOL = 1e-10
MAX_ITER = 100_000


@dataclass
class CombResult:
    """The outcome of ``optimize_fixed_order``.

    ``comb`` is the certified comb: a valid real 32x32 comb, feasible to
    rounding, whose objective is ``lower``, and ``p_succ`` equals ``lower``.
    ``[lower, upper]`` is the certified interval around the optimum, of width
    ``gap``.  ``iterations`` counts the ADMM iterations run, and
    ``primal_residual`` is the distance of the last iterate from the comb
    subspace.  ``residuals`` are the comb's constraint residuals and least
    eigenvalue (``comb_residuals``), and ``history`` holds one row per
    certificate check: iteration, objective of the iterate, primal residual,
    lower and upper.

    ``bound`` reports ``comb``'s mean success on the packaged table's 100 pairs
    as ``table_pairs_success``, 0.93826.  Twirling over common frame rotations V
    and complex conjugation maps every comb to a symmetric real comb with the
    same value, and every optimal comb twirls to the unique symmetric optimum,
    ``comb``.  So 0.93826 is the frame-averaged table score of every optimal
    comb, and it does not depend on the solver's path.
    """

    comb: np.ndarray
    iterations: int
    primal_residual: float
    lower: float
    upper: float
    residuals: dict
    history: list[dict]

    @property
    def p_succ(self) -> float:
        return self.lower

    @property
    def gap(self) -> float:
        return self.upper - self.lower


# --------------------------------------------------------------------------
# comb pairing with gate pairs


def probability_from_comb(w: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                          i: int | np.ndarray) -> np.ndarray:
    """tr(S_i W) for gates or stacks (..., 2, 2) of gates and outcomes ``i``.

    The score operator S_i = choi(U1) (x) choi(U2) (x) |i><i| is the outer
    square of x = v1 (x) v2 (x) |i>, with v the Choi vectors, so tr(S_i W)
    is the rank-one contraction <x|W|x>.  Results are clamped to [0, 1]
    within a 1e-8 guard band; ``w`` must be 32x32 and outcomes integers.
    """
    if np.shape(w) != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} comb, got shape {np.shape(w)}")
    i = np.asarray(i)
    if not (np.issubdtype(i.dtype, np.integer) and np.isin(i, (0, 1)).all()):
        raise ValueError("outcome must be 0 or 1")
    u1, u2 = np.split(require_unitary_pair(u1, u2), 2, axis=-2)
    v1, v2 = choi_vector(u1), choi_vector(u2)
    y = (v1[..., :, None] * v2[..., None, :]).reshape(v1.shape[:-1] + (16,))
    blocks = np.asarray(w).reshape(16, 2, 16, 2).transpose(1, 3, 0, 2)[[0, 1], [0, 1]]
    p = np.einsum("...a,...ab,...b->...", y.conj(), blocks[i], y).real
    bad = ~((p >= -1e-8) & (p <= 1.0 + 1e-8))  # NaN included
    if np.any(bad):
        raise ValueError(f"comb produced out-of-range probability {p[bad][0]}")
    return np.clip(p, 0.0, 1.0)


# --------------------------------------------------------------------------
# comb constraints: residuals and affine projection


def _tail_traces(x: np.ndarray) -> list[np.ndarray]:
    """[x, tr_P5 x, tr_P4P5 x, tr_P3P4P5 x, tr_P2..P5 x] of a 32x32 operator
    or a stack (..., 32, 32) of them.

    Every comb constraint traces a tail of the wire order, so each entry is
    the previous one with its last qubit traced out.
    """
    traces = [x]
    for m in (16, 8, 4, 2):
        traces.append(traces[-1].reshape(x.shape[:-2] + (m, 2, m, 2)).trace(axis1=-3, axis2=-1))
    return traces


def comb_residuals(w: np.ndarray) -> dict:
    """Frobenius residuals of the comb constraints plus the minimum eigenvalue."""
    w = np.asarray(w, dtype=complex)
    herm = float(np.linalg.norm(w - w.conj().T))
    _, tr5, tr45, tr345, tr2345 = _tail_traces(w)
    w2 = tr45 / 2.0  # on P1P2P3
    slot2 = float(np.linalg.norm(tr5 - np.kron(w2, np.eye(2))))
    w1 = tr2345 / 4.0  # on P1
    # tr_P3 W2 should equal W1 (x) I_P2 on wire order P1 P2
    slot1 = float(np.linalg.norm(tr345 / 2.0 - np.kron(w1, np.eye(2))))
    trace = float(abs(np.trace(w).real - 4.0))
    min_eig = float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])
    return {
        "hermiticity": herm,
        "slot2": slot2,
        "slot1": slot1,
        "trace": trace,
        "min_eigenvalue": min_eig,
    }


def project_comb_affine(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the affine comb subspace, of a 32x32 operator
    or of each operator of a stack (..., 32, 32).

    The two recursive constraints are kernels of the commuting orthogonal
    projections L5(1-L4) and L345(1-L2), where L_S replaces wires S by the
    maximally mixed state; composing the complements collapses to

        x - t1/2 (x) I2 + t2/4 (x) I4 - t3/8 (x) I8 + t4/16 (x) I16

    with t_k the trace of the last k wires (``_tail_traces``).  The trace is
    then fixed along the identity direction.
    """
    x = np.asarray(x, dtype=complex)
    _, t1, t2, t3, t4 = _tail_traces(x)
    y = (
        x
        - np.kron(t1 / 2, np.eye(2))
        + np.kron(t2 / 4, np.eye(4))
        - np.kron(t3 / 8, np.eye(8))
        + np.kron(t4 / 16, np.eye(16))
    )
    y += ((4.0 - np.trace(y, axis1=-2, axis2=-1).real) / DIM)[..., None, None] * np.eye(DIM)
    return y


# --------------------------------------------------------------------------
# block coordinates of the symmetric subspace
#
# Omega and the comb constraints are invariant under conj(V) (x) V (x) conj(V)
# (x) V (x) I for every qubit unitary V, so the optimum can be taken in the
# commutant of that action.  With sigma_y on P1 and P3 the action becomes
# V^(x)4, whose commutant on the four gate wires is I5 (x) M2 + I3 (x) M1 +
# I1 (x) M0 in the total-spin (Schur) basis, with blocks M_j of size 1, 3
# and 2.  Each outcome |i><i| of P5 has its own three blocks.  The copies of
# each spin couple (P1 P2) and (P3 P4) (Clebsch-Gordan; Bacon, Chuang & Harrow,
# arXiv:quant-ph/0407082).  In that basis the frame, the spin vectors and
# Omega's blocks are real (the blocks are even diagonal and rational), so the
# blocks are taken real symmetric: 2 x (1 + 6 + 3) = 20 real coordinates
# (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004, real type).

SPINS = (2, 1, 0)
MULTIPLICITIES = (1, 3, 2)  # copies of each spin in four qubits: the size of M_j


def _schur_vectors() -> np.ndarray:
    """Unnormalised integer vectors |j, m, a> of the gate wires in the comb's frame, shape (3, 16, 5, 3).

    Index 0 runs over j = 2, 1, 0; m over the 2j+1 spin states (zero-padded
    to 5) and a over the copies of spin j (zero-padded to 3).  Each copy
    couples the pairs (P1 P2) and (P3 P4): its top vector, at m = j, is built
    from |00>, |11>, s' = |01> - |10> and t' = |01> + |10> of each pair.
    Each J- step scales the squared norm of every copy of a spin alike, so
    normalising once (``_BlockCoordinates``) gives every copy the same phases
    and V^(x)4 acts alike on all.  The frame sigma_y (x) I (x) sigma_y (x) I
    is a signed permutation, so the vectors stay integer.
    """
    idx = np.arange(16)
    # J-: each qubit in turn from |0> (up) to |1>, P1 the high bit
    lowering = np.zeros((16, 16), dtype=int)
    for bit in (8, 4, 2, 1):
        low = idx[idx & bit == 0]
        lowering[low | bit, low] = 1
    # the frame flips P1 and P3 (bits 3 and 1), with sign -1 where they agree
    perm = idx ^ 0b1010
    sign = np.where((idx >> 3 & 1) != (idx >> 1 & 1), 1, -1)[:, None]
    up, down = np.eye(4, dtype=int)[[0, 3]]
    singlet, triplet = np.array([[0, 1, -1, 0], [0, 1, 1, 0]])
    # np.outer(x, y) is x on (P1 P2) times y on (P3 P4), flattened below
    tops = ([np.outer(up, up)],
            [np.outer(up, singlet), np.outer(singlet, up), np.outer(up, triplet) - np.outer(triplet, up)],
            [np.outer(singlet, singlet),
             2 * np.outer(up, down) - np.outer(triplet, triplet) + 2 * np.outer(down, up)])
    q = np.zeros((3, 16, 5, 3), dtype=int)
    for s, (j, top) in enumerate(zip(SPINS, tops)):
        vecs = np.reshape(top, (-1, 16)).T
        for m in range(2 * j + 1):
            q[s, :, m, :len(top)] = sign * vecs[perm]
            vecs = lowering @ vecs
    return q


def _unit_blocks() -> np.ndarray:
    """The 0/1 symmetric patterns M[i, j] of the 20 unit coordinates, shape
    (20, 6, 3, 3), zero-padded: one per diagonal entry or mirrored pair."""
    units = []
    for slot in range(6):
        for a, b in itertools.combinations_with_replacement(range(MULTIPLICITIES[slot % 3]), 2):
            unit = np.zeros((6, 3, 3), dtype=int)
            unit[slot, a, b] = unit[slot, b, a] = 1
            units.append(unit)
    return np.array(units)


class _BlockCoordinates:
    """Frobenius-orthonormal coordinates of the symmetric real operators.

    ``basis`` holds the 20 real operators B_k (32x32); ``affine`` (20x20) and
    ``offset`` (the coordinates of I * 4/32) are ``project_comb_affine`` in
    these coordinates.  As <B_k, t (x) I> = <tr_tail B_k, t>, each tail term of
    the projection is a Gram matrix of the tail traces T_m of the basis, and
    the trace fix removes the identity direction, with coordinates r = tr B_k:
    affine = I_20 + sum_m (-1/2)^m T_m T_m^T - r r^T/32, offset = 4/32 r.
    It is the one place that normalises: each Schur vector by its norm, each
    basis operator and its ``to_blocks`` column by their Frobenius norm.  The
    solver shares one read-only instance (``_block_coordinates``), built on
    first use, not at import.
    """

    def __init__(self) -> None:
        q = _schur_vectors()
        q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1.0)  # nonzero norms >= 1, padding stays 0
        units = _unit_blocks()
        n = len(units)
        # on the gate wires, entry (a, b) of M_j is the operator sum_m |j, m, a><j, m, b|
        entries = (q.transpose(0, 3, 1, 2)[:, :, None] @ q.transpose(0, 3, 2, 1)[:, None]).reshape(27, 256)
        gate_wires = (units.reshape(2 * n, 27) @ entries).reshape(n, 2, 16, 16)
        # B_k = sum_i (gate-wire operator of outcome i) (x) |i><i|
        basis = (gate_wires.transpose(0, 2, 1, 3)[..., None] * np.eye(2)[:, None]).reshape(n, DIM, DIM)
        norms = np.linalg.norm(basis, axis=(1, 2))
        self.basis = basis / norms[:, None, None]
        self.to_blocks = units.reshape(n, -1).T / norms  # the 54 padded block entries of each B_k
        # to_blocks' columns have disjoint supports: its left inverse divides each by its squared norm
        self.from_blocks = self.to_blocks.T / (self.to_blocks**2).sum(axis=0)[:, None]
        traces = self.reduce(np.eye(DIM))
        self.offset = traces * (4.0 / DIM)
        self.affine = np.eye(n) - np.outer(traces, traces) / DIM
        for m, tails in enumerate(_tail_traces(self.basis)[1:], start=1):
            tails = tails.reshape(n, -1)
            self.affine += (-0.5) ** m * (tails @ tails.T)
        read_only(self.basis, self.to_blocks, self.from_blocks, self.offset, self.affine)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Coordinates <B_k, x> of the symmetric part of a 32x32 operator or of
        each operator of a stack (..., 32, 32)."""
        flat = np.reshape(x, np.shape(x)[:-2] + (-1,))
        return (flat @ self.basis.reshape(len(self.basis), -1).T).real

    def embed(self, c: np.ndarray) -> np.ndarray:
        """The 32x32 operator sum_k c_k B_k."""
        return np.tensordot(c, self.basis, 1)

    def blocks(self, c: np.ndarray) -> np.ndarray:
        """The six padded 3x3 blocks M[i, j] (outcome, spin) of coordinates ``c``."""
        return (self.to_blocks @ c).reshape(6, 3, 3)

    def coordinates(self, blocks: np.ndarray) -> np.ndarray:
        """The coordinates of six padded symmetric blocks; inverse of ``blocks``."""
        return self.from_blocks @ blocks.reshape(-1)

    def min_eigenvalue(self, c: np.ndarray) -> float:
        """Smallest eigenvalue of the six padded blocks, the padding's zeros included."""
        return float(np.linalg.eigvalsh(self.blocks(c)).min())


_block_coordinates = functools.cache(_BlockCoordinates)

# the diagonals of Omega's six blocks M[i, j], zero-padded: outcome 0 then 1, spin 2, 1, 0 each
OMEGA_DIAGONALS = ((1 / 15, 0, 0), (1 / 6, 1 / 6, 0), (1 / 2, 1 / 6, 0),
                   (1 / 5, 0, 0), (0, 0, 1 / 3), (0, 0, 0))


@functools.cache
def objective_operator() -> np.ndarray:
    """The exact class-averaged objective Omega of the fixed-order SDP.

    Omega, (S_0 averaged over commuting pairs + S_1 over anti-commuting pairs)
    / 2 with each class over its Haar-random shared eigenbasis (``gates``), is
    a twirl under the gate symmetry.  So it lies in the block coordinates, and
    the coupled copies make its six blocks (outcome 0 then 1, spin 2, 1, 0)
    diagonal, with the rational entries ``OMEGA_DIAGONALS``.  Tests pin them
    against an exact average over a unitary 5-design (``tests/oracles.py``).
    Built once per process, on first use, and read-only.
    """
    coords = _block_coordinates()
    omega = coords.embed(coords.coordinates(np.asarray(OMEGA_DIAGONALS)[:, :, None] * np.eye(3)))
    read_only(omega)
    return omega


def _certificate(coords: _BlockCoordinates, target: np.ndarray, z: np.ndarray,
                 u: np.ndarray) -> tuple[np.ndarray, float]:
    """A valid comb and an upper bound on the optimum, from the current ADMM
    primal ``z`` and multiplier ``u``; the comb's value is the lower bound.

    Comb: ``z`` projected onto the affine comb subspace and mixed with the
    feasible I * 4/32 just enough to be PSD.  Upper: the dual witness T, the
    projection of Omega - RHO u onto the complement of the comb subspace,
    shifted by eps I until T - Omega is PSD.  For every comb W, <Omega, W>
    <= <T, W> = <T, I * 4/32>, as T is orthogonal to the differences of
    combs; the identity is too, so the shift adds 4 eps.
    """
    w = coords.affine @ z + coords.offset
    lam = min(coords.min_eigenvalue(w), 0.0)
    mix = lam / (lam - 4.0 / DIM)  # (1 - mix) lam + mix * 4/32 = 0
    s = target - RHO * u
    t = s - coords.affine @ s
    eps = -min(coords.min_eigenvalue(t - target), 0.0)
    return (1.0 - mix) * w + mix * coords.offset, float(t @ coords.offset) + 4.0 * eps


def optimize_fixed_order(omega: np.ndarray) -> CombResult:
    """Maximize tr(W Omega) over valid combs by ADMM in the 20 block coordinates.

    ``omega`` must be finite and lie in the span of the coordinates: invariant
    under conj(V) (x) V (x) conj(V) (x) V (x) I, as the class-averaged
    objective is, and with real blocks; ValueError otherwise.  Each iteration
    applies the affine comb projection as a fixed 20x20 map plus an offset,
    both formed in the coordinates (with the linear objective folded into
    the proximal step at penalty ``RHO``), then projects onto the PSD cone with
    one batched real eigh of the six padded 3x3 blocks.  The coordinates
    are orthonormal, so the primal residual and the objective are those of
    the 32x32 operators.  Every 10th iteration ``_certificate`` turns the
    iterate into a certified interval [lower, upper] around the optimum,
    and ``history`` gains a row (iteration, objective of the iterate,
    primal residual, lower, upper).  The solve runs on ``omega`` scaled by
    the power of two, an exact scaling, that brings its largest entry into
    [1/6, 1/3), which leaves Omega unscaled; it stops as soon as upper -
    lower is at most ``GAP_TOL`` there, and raises RuntimeError if that has
    not happened after ``MAX_ITER`` iterations.  Values are reported scaled back.

    The last iterate is PSD but off the comb subspace by the primal residual.
    The result holds instead the certified comb of the last check, a valid
    real 32x32 comb in the original frame, and its residuals; its objective
    is both ``p_succ`` and ``lower``.
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (DIM, DIM):
        raise ValueError(f"objective must be {DIM}x{DIM}, got shape {omega.shape}")
    if not np.isfinite(omega).all():
        raise ValueError("objective has non-finite entries")
    scale = 2.0 ** int(np.frexp(3.0 * np.abs(omega).max())[1])  # Omega's largest entry is 7/30
    omega = omega / scale
    coords = _block_coordinates()
    target = coords.reduce(omega)
    off_subspace = float(np.linalg.norm(omega - coords.embed(target)))
    if not off_subspace <= 1e-10 * (1.0 + float(np.linalg.norm(omega))):
        raise ValueError(f"objective is not invariant under the gate symmetry "
                         f"(distance {off_subspace:.3e} from the symmetric subspace)")
    affine, offset = coords.affine, coords.offset
    pull = target / RHO
    w = z = offset  # I * 4/32
    u = np.zeros_like(z)
    history = []
    for it in range(1, MAX_ITER + 1):
        w = affine @ (z - u + pull) + offset
        lam, vec = np.linalg.eigh(coords.blocks(w + u))
        # V diag(lam+) V^T: entry (a, b) is row a of V diag(lam+) dotted into row b of V
        z = coords.coordinates(np.vecdot((vec * np.maximum(lam, 0.0)[:, None, :])[:, :, None], vec[:, None]))
        u = u + w - z
        # a check costs about one iteration, so checking every 10th adds about 10%
        if it % 10 == 0:
            certified, upper = _certificate(coords, target, z, u)
            lower, upper = scale * float(target @ certified), scale * upper
            resid = float(np.linalg.norm(w - z))
            history.append({"iteration": it, "objective": scale * float(target @ z),
                            "primal_residual": resid, "lower": lower, "upper": upper})
            if upper - lower <= GAP_TOL * scale:
                comb = coords.embed(certified)
                return CombResult(comb=comb, iterations=it, primal_residual=resid,
                                  lower=lower, upper=upper, residuals=comb_residuals(comb),
                                  history=history)
    raise RuntimeError(f"ADMM did not reach a relative certified gap of {GAP_TOL} in {MAX_ITER} "
                       f"iterations (primal residual {np.linalg.norm(w - z):.3e})")


def evaluate_comb(w: np.ndarray, pairs: PairStack) -> np.ndarray:
    """The (n,) probabilities of the correct verdict on n labeled gate pairs."""
    if len(pairs) == 0:
        raise ValueError("no pairs were given")
    return probability_from_comb(w, pairs.u1, pairs.u2, pairs.port)
