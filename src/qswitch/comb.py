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
over combs is solved in the symmetric subspace (see "the blocks of the
symmetric subspace" below): six padded real 3x3 blocks, where Omega is
diagonal with seven exact rational entries.  The ADMM iterates, the affine
comb map and the certificate all work on those blocks.  Each check
certifies ADMM's pair, then narrows it by linear solves on the face of the
iterate (a polish) and on the kernel of the dual slack each yields, about
quadratically per pass (on Omega from 3.5e-2 at iteration 10 to 1.0e-15 in
three passes).  The solve returns a certified interval around the optimum
and the valid 32x32 comb that attains its lower end.
The certificate is evaluated in floats, so it is not rigorous: on c I, where
every comb scores 4c, ``lower`` is 1 ulp below 4c at c = 1, 1/4 and 7/30
(``upper`` 1, 1 and 3 above) and at or below 4c at 300 uniform c in
[0.1, 1), but 1-4 ulps above 4c at 295 of 300 such -c.  An exact one would be.
"""

from __future__ import annotations

import functools
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
    ``[lower, upper]`` is the interval around the optimum, of width ``gap``,
    certified only up to rounding (see the module docstring).  ``iterations``
    counts the ADMM iterations run, and ``primal_residual`` is the distance
    from the comb subspace of the last check's primal guess.  ``residuals``
    are the comb's constraint residuals and least eigenvalue
    (``comb_residuals``), and ``history`` holds one row per certificate
    check: iteration, objective and primal residual of that check's primal
    guess, lower, upper and whether a face pass gave that interval.

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
    if not (np.issubdtype(i.dtype, np.integer) and ((i == 0) | (i == 1)).all()):
        raise ValueError("outcome must be 0 or 1")
    u1, u2 = np.split(require_unitary_pair(u1, u2), 2, axis=-2)
    v1, v2 = choi_vector(u1), choi_vector(u2)
    y = (v1[..., :, None] * v2[..., None, :]).reshape(v1.shape[:-1] + (16,))
    # column (o, a) of the product is row a of the outcome-o block: B_o[a, b] = W[(a, o), (b, o)]
    blocks = np.asarray(w).reshape(16, 2, 16, 2)[:, [0, 1], :, [0, 1]].transpose(2, 0, 1).reshape(16, 32)
    both = np.vecdot(y[..., None, :], (y @ blocks).reshape(y.shape[:-1] + (2, 16))).real
    p = np.where(i == 0, both[..., 0], both[..., 1])
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


# I_2 and I_8 as (n, 1, n), which broadcast t (x) I_n; built once, as a fresh eye per call slowed comb_residuals
_EYES = {n: np.eye(n)[:, None] for n in (2, 8)}
read_only(*_EYES.values())


def _with_identity(t: np.ndarray, n: int) -> np.ndarray:
    """t (x) I_n, shape (..., m n, m n), of a (..., m, m) operator or stack, for n = 2 or 8."""
    return (t[..., :, None, :, None] * _EYES[n]).reshape(t.shape[:-2] + (t.shape[-1] * n,) * 2)


def _slot_residuals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slot residuals (r2, r1), 16x16 and 4x4, of a 32x32 operator or each
    of a stack (..., 32, 32): r2 = tr_P5 x - tr_P4P5 x / 2 (x) I_P4 and r1 =
    tr_P3P4P5 x / 2 - tr_P2..P5 x / 4 (x) I_P2, both zero on a comb.  Each is a
    tail trace t less its part t' (x) I, an orthogonal projection of t."""
    _, tr5, tr45, tr345, tr2345 = _tail_traces(x)
    return tr5 - _with_identity(tr45 / 2.0, 2), tr345 / 2.0 - _with_identity(tr2345 / 4.0, 2)


def comb_residuals(w: np.ndarray) -> dict:
    """Frobenius residuals of the comb constraints plus the minimum eigenvalue."""
    w = np.asarray(w)
    herm = float(np.linalg.norm(w - w.conj().T))
    slot2, slot1 = (float(np.linalg.norm(r)) for r in _slot_residuals(w))
    trace = float(abs(np.trace(w).real - 4.0))
    min_eig = float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])
    return {"hermiticity": herm, "slot2": slot2, "slot1": slot1, "trace": trace, "min_eigenvalue": min_eig}


def project_comb_affine(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the affine comb subspace, of a 32x32 operator
    or of each operator of a stack (..., 32, 32); a real operator stays real.

    It is x - r2/2 (x) I_P5 - r1/4 (x) I_P3P4P5 with r2, r1 the slot residuals
    of x: each residual map A has A A^T = 2 on its range, A^T r is r (x) I_P5
    for slot 2 and r (x) I_P3P4P5 / 2 for slot 1, and the two are orthogonal.
    The trace is then fixed along the identity direction.
    """
    x = np.asarray(x)
    r2, r1 = _slot_residuals(x)
    y = x - _with_identity(r2 / 2.0, 2) - _with_identity(r1 / 4.0, 8)
    y += ((4.0 - np.trace(y, axis1=-2, axis2=-1).real) / DIM)[..., None, None] * np.eye(DIM)
    return y


# --------------------------------------------------------------------------
# the blocks of the symmetric subspace
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
# blocks are taken real symmetric (Gatermann & Parrilo, J. Pure Appl. Algebra
# 192, 2004, real type) and zero-padded to 3x3: six blocks M[i, j] (outcome,
# spin) of 54 entries, the one representation the solver works in.

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


class _BlockCoordinates:
    """The six padded blocks M[i, j] (outcome, spin) of the symmetric real operators.

    Entry M[i, j, a, b] stands for E[i, j, a, b] = G[j, a, b] (x) |i><i|, with the
    gate-wire operators G[j, a, b] = sum_m |j, m, a><j, m, b| (16x16), zero at the
    padding, held once for both outcomes in ``gate_wires`` (27x256).  The E are
    orthogonal with <E, E> = 2j + 1, which ``weights`` holds for each of the 54
    entries, so the Frobenius product of two operators is sum weights * A * B over
    their blocks.  ``valid`` (6x3x3) marks the entries inside the true M_j.
    ``affine`` (54x54) and ``offset`` (the blocks of I * 4/32) are
    ``project_comb_affine`` on the blocks.  Its slot terms pair with an E as
    <E, r2(E')/2 (x) I_P5> = <r2(E), r2(E')>/2, and alike for r1, so with R2 and
    R1 the slot residuals of the 54 E and r = tr E: affine = (E E^T - (R2 R2^T +
    R1 R1^T)/2 - r r^T/32) / weights.  It is the one place that normalises the
    Schur vectors.  The solver shares one read-only instance, built on first use.
    """

    def __init__(self) -> None:
        q = _schur_vectors()
        q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1.0)  # nonzero norms >= 1, padding stays 0
        # on the gate wires, entry (a, b) of M_j is the operator sum_m |j, m, a><j, m, b|
        self.gate_wires = (q.transpose(0, 3, 1, 2)[:, :, None] @ q.transpose(0, 3, 2, 1)[:, None]).reshape(27, 256)
        self.weights = np.repeat(2.0 * np.array(SPINS * 2) + 1.0, 9)
        self.valid = np.maximum.outer(np.arange(3), np.arange(3)) < np.array(MULTIPLICITIES * 2)[:, None, None]
        self.offset = self.reduce(np.eye(DIM)).reshape(-1) * (4.0 / DIM)
        basis = self.embed(np.eye(54).reshape(54, 6, 3, 3))  # the 54 E, for the build only
        flat, tr = basis.reshape(54, -1), np.trace(basis, axis1=1, axis2=2)
        # tr_P5 E[i, j, a, b] is G[j, a, b] for either outcome, so both outcomes have the same slot residuals
        r2, r1 = (np.tile(r.reshape(27, -1), (2, 1)) for r in _slot_residuals(basis[:27]))
        self.affine = (flat @ flat.T - (r2 @ r2.T + r1 @ r1.T) / 2.0 - np.outer(tr, tr) / DIM) / self.weights[:, None]
        read_only(self.gate_wires, self.weights, self.valid, self.offset, self.affine)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """The blocks (..., 6, 3, 3) of the symmetric real part of a 32x32
        operator or of each operator of a stack (..., 32, 32): its orthogonal
        projection onto the symmetric real operators."""
        lead = np.shape(x)[:-2]
        # outcome i's block x[(a, i), (b, i)], the only part that meets an E, is x[..., i::2, i::2]
        blocks = np.stack([np.real(x)[..., i::2, i::2] for i in (0, 1)], axis=-3).reshape(lead + (2, 256))
        m = (blocks @ self.gate_wires.T / self.weights.reshape(2, 27)).reshape(lead + (6, 3, 3))
        return (m + m.mT) / 2

    def embed(self, m: np.ndarray) -> np.ndarray:
        """The 32x32 operator sum M[i, j, a, b] E[i, j, a, b] of blocks (..., 6, 3, 3)."""
        lead = np.shape(m)[:-3]
        blocks = (np.reshape(m, lead + (2, 27)) @ self.gate_wires).reshape(lead + (2, 16, 16))
        x = np.zeros(lead + (DIM, DIM))
        x[..., 0::2, 0::2], x[..., 1::2, 1::2] = blocks[..., 0, :, :], blocks[..., 1, :, :]
        return x


_block_coordinates = functools.cache(_BlockCoordinates)

# the diagonals of Omega's six blocks M[i, j], zero-padded: outcome 0 then 1, spin 2, 1, 0 each
OMEGA_DIAGONALS = ((1 / 15, 0, 0), (1 / 6, 1 / 6, 0), (1 / 2, 1 / 6, 0),
                   (1 / 5, 0, 0), (0, 0, 1 / 3), (0, 0, 0))


@functools.cache
def objective_operator() -> np.ndarray:
    """The exact class-averaged objective Omega of the fixed-order SDP.

    Omega, (S_0 averaged over commuting pairs + S_1 over anti-commuting pairs)
    / 2 with each class over its Haar-random shared eigenbasis (``gates``), is
    a twirl under the gate symmetry.  So it lies in the symmetric subspace, and
    the coupled copies make its six blocks (outcome 0 then 1, spin 2, 1, 0)
    diagonal, with the rational entries ``OMEGA_DIAGONALS``.  Tests pin them
    against an exact average over a unitary 5-design (``tests/oracles.py``).
    Built once per process, on first use, and read-only.
    """
    omega = _block_coordinates().embed(np.asarray(OMEGA_DIAGONALS)[:, :, None] * np.eye(3))
    read_only(omega)
    return omega


def _certificate(coords: _BlockCoordinates, target: np.ndarray, primal: np.ndarray,
                 dual: np.ndarray) -> tuple[np.ndarray, float, float]:
    """A valid comb, its value (the lower bound) and an upper bound on the
    optimum, from a primal and a dual guess (54 block entries each).

    Comb: ``primal`` projected onto the affine comb subspace and mixed with
    the feasible I * 4/32 just enough to be PSD.  Upper: the dual witness T,
    the projection of ``dual`` onto the complement of the comb subspace,
    shifted by eps I until T - Omega is PSD.  For every comb W, <Omega, W>
    <= <T, W> = <T, I * 4/32>, as T is orthogonal to the differences of
    combs; the identity is too, so the shift adds 4 eps.
    """
    w = coords.affine @ primal + coords.offset
    t = dual - coords.affine @ dual
    # the least eigenvalues of the six blocks of w and of T - Omega, the padding's zeros included
    lam, slack = np.minimum(np.linalg.eigvalsh(np.reshape([w, t - target], (2, 6, 3, 3))).min(axis=(1, 2)), 0.0)
    mix = lam / (lam - 4.0 / DIM)  # (1 - mix) lam + mix * 4/32 = 0
    w = (1.0 - mix) * w + mix * coords.offset
    return w, float(coords.weights @ (target * w)), float(coords.weights @ (t * coords.offset) - 4.0 * slack)


def _face_pair(coords: _BlockCoordinates, target: np.ndarray, span: np.ndarray, vec: np.ndarray,
               dual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A primal and a dual guess on the face spanned by the columns ``vec``
    of each block marked by ``span`` (6x3 booleans), from a dual guess.

    The face F is spanned by v_a v_c^T + v_c v_a^T over each block's marked
    vectors.  With C = I - affine, self-adjoint in the weighted product, the
    primal F y solves C F y = offset by weighted least squares, and the dual
    adds C F alpha to ``dual`` so that F^T weights (T - Omega) = 0; both
    solve with the normal matrix (C F)^T weights C F.
    """
    a, c = np.array([[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]])  # np.triu_indices(3), which costs 14 us
    block, pair = np.nonzero(span[:, a] & span[:, c])  # one column of F per marked (block, pair), in that order
    outer = vec.mT[block, a[pair], :, None] * vec.mT[block, c[pair], None, :]  # v_a v_c^T of each column
    face = np.zeros((len(block), 6, 9))
    face[np.arange(len(block)), block] = (outer + outer.mT).reshape(-1, 9)
    face = face.reshape(-1, 54).T
    cf = face - coords.affine @ face
    wcf = coords.weights[:, None] * cf
    rhs = np.stack([wcf.T @ coords.offset, face.T @ (coords.weights * target) - wcf.T @ dual], axis=1)
    y, alpha = np.linalg.lstsq(cf.T @ wcf, rhs, rcond=None)[0].T
    return face @ y, dual + cf @ alpha


def _polish(coords: _BlockCoordinates, target: np.ndarray, primal: np.ndarray, dual: np.ndarray,
            span: np.ndarray, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float, bool]:
    """The primal guess, certified comb, lower and upper of the narrowest
    certified pass, and whether it is a face pass.  Pass 0 certifies ADMM's
    pair (``primal``, ``dual``); up to four face passes follow, the first on
    the face of the iterate whose blocks have eigenvectors ``vec`` and range
    ``span`` (6x3 booleans: its positive eigenvalues).

    At a strictly complementary optimum the comb's face is the kernel of the
    dual slack S = T - Omega (Alizadeh, Haeberly & Overton, Math. Programming
    77, 1997).  So each later pass takes the face from the last pass's dual:
    in each block, the eigenvectors of S with the least eigenvalues, as many
    as the iterate's range has, with the padding (``valid``) shifted above
    every eigenvalue of the block so that its zeros are never taken.  The
    passes converge about quadratically (on Omega at iteration 10: gaps
    3.5e-2, 1.0e-4, 5.9e-9, 1.0e-15); they stop at ``GAP_TOL`` or at a pass
    that fails to narrow the one before it tenfold.
    """
    rank, passes, gaps = span.sum(axis=1), [], [np.inf]
    for n in range(5):
        if n:
            primal, dual = _face_pair(coords, target, span, vec, dual)
        passes.append((primal, *_certificate(coords, target, primal, dual)))
        gaps.append(passes[-1][3] - passes[-1][2])
        if gaps[-1] <= GAP_TOL or not gaps[-1] <= gaps[-2] / 10:
            break
        if n:
            slack = (dual - coords.affine @ dual - target).reshape(6, 3, 3)
            vec = np.linalg.eigh(np.where(coords.valid, slack, (1.0 + np.abs(slack).sum()) * np.eye(3)))[1]
            span = np.arange(3) < rank[:, None]
    best = int(np.argmin(gaps[1:]))
    return (*passes[best], best > 0)


def optimize_fixed_order(omega: np.ndarray) -> CombResult:
    """Maximize tr(W Omega) over valid combs by ADMM on the six padded blocks.

    ``omega`` must be finite and lie in the symmetric subspace: invariant
    under conj(V) (x) V (x) conj(V) (x) V (x) I, as the class-averaged
    objective is, and with real symmetric blocks; ValueError otherwise.  The
    iterates are the 54 block entries.  The affine comb projection is one
    54x54 map plus an offset on them, and the linear objective, folded into
    the proximal step at penalty ``RHO``, adds a constant per solve.  Each
    iteration applies that map, then projects onto the PSD cone with one
    batched real eigh of the six blocks.  Every 10th iteration ``_polish``
    turns the iterate into an interval [lower, upper] around the optimum,
    certified up to rounding (see the module docstring): the narrowest of
    ADMM's own pair and its face passes (on Omega, at iteration 10, gap
    1.0e-15).  ``history`` gains a row: iteration, objective and primal
    residual of that pass's primal guess p, lower, upper, and whether a face
    pass was the narrowest.  The objective and the primal residual, the
    distance ||p - affine p - offset|| of p from the comb subspace, are those
    of the 32x32 operators, as weighted sums over the blocks.
    The solve runs on ``omega`` scaled by the exact power of two that brings
    its largest entry into [1/6, 1/3) (Omega is not rescaled); it stops as
    soon as upper - lower is at most ``GAP_TOL`` there, and raises
    RuntimeError, with the primal residual of the last iterate, if that has
    not happened after ``MAX_ITER`` iterations.  Values are reported scaled
    back, so every finite scale is accepted while ``lower`` and ``upper``
    are floats: 1e308 I, whose optimum is 4e308, is a ValueError.

    The result holds the certified comb of the last check, a valid real
    32x32 comb in the original frame, and its residuals; its objective is
    both ``p_succ`` and ``lower``.
    """
    omega = np.ascontiguousarray(omega, dtype=complex)
    if omega.shape != (DIM, DIM):
        raise ValueError(f"objective must be {DIM}x{DIM}, got shape {omega.shape}")
    if not np.isfinite(omega).all():
        raise ValueError("objective has non-finite entries")
    # the exponent of 3 max|omega| (7/10 for Omega: k = 0), taken apart so that it cannot overflow
    mantissa, exponent = np.frexp(np.abs(omega).max())
    k = int(exponent + np.frexp(3.0 * mantissa)[1])
    omega = np.ldexp(omega.view(float), -k).view(complex)
    coords = _block_coordinates()
    target = coords.reduce(omega)
    off_subspace = float(np.linalg.norm(omega - coords.embed(target)))
    if not off_subspace <= 1e-10 * (1.0 + float(np.linalg.norm(omega))):
        raise ValueError(f"objective is not invariant under the gate symmetry "
                         f"(distance {off_subspace:.3e} from the symmetric subspace)")
    target = target.reshape(-1)
    affine, weights = coords.affine, coords.weights
    pull = affine @ (target / RHO) + coords.offset
    z = coords.offset  # I * 4/32
    u = np.zeros_like(z)
    history = []

    def primal_residual(p: np.ndarray) -> float:
        return float(np.sqrt(weights @ (p - affine @ p - coords.offset) ** 2))

    for it in range(1, MAX_ITER + 1):
        x = affine @ (z - u) + pull + u
        lam, vec = np.linalg.eigh(x.reshape(6, 3, 3))
        z = ((vec * np.maximum(lam, 0.0)[:, None, :]) @ vec.mT).reshape(-1)
        u = x - z
        # a check costs about one iteration for ADMM's certificate and about six per face pass
        if it % 10 == 0:
            primal, certified, lower, upper, polished = _polish(coords, target, z, target - RHO * u, lam > 0, vec)
            with np.errstate(over="ignore"):  # scaled back exactly; inf beyond float range
                objective, lower_k, upper_k = np.ldexp([float(weights @ (target * primal)), lower, upper], k).tolist()
            resid = primal_residual(primal)
            history.append({"iteration": it, "objective": objective, "primal_residual": resid,
                            "lower": lower_k, "upper": upper_k, "polished": polished})
            if upper - lower <= GAP_TOL:
                if not np.isfinite([lower_k, upper_k]).all():
                    raise ValueError(f"the optimum, [{lower}, {upper}] * 2**{k}, is outside float range")
                comb = coords.embed(certified.reshape(6, 3, 3))
                return CombResult(comb=comb, iterations=it, primal_residual=resid,
                                  lower=lower_k, upper=upper_k, residuals=comb_residuals(comb),
                                  history=history)
    raise RuntimeError(f"ADMM did not reach a relative certified gap of {GAP_TOL} in {MAX_ITER} "
                       f"iterations (primal residual {primal_residual(z):.3e})")


def evaluate_comb(w: np.ndarray, pairs: PairStack) -> np.ndarray:
    """The (n,) probabilities of the correct verdict on n labeled gate pairs."""
    if len(pairs) == 0:
        raise ValueError("no pairs were given")
    return probability_from_comb(w, pairs.u1, pairs.u2, pairs.port)
