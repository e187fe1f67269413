"""Fixed-order-circuit (quantum comb) operators and the success-probability SDP.

A comb W is a 32x32 PSD operator on five qubit wires P1..P5 (into gate one,
out of gate one, into gate two, out of gate two, measured output) satisfying

    tr_P5 W = I_P4 (x) W2,   tr_P3 W2 = I_P2 (x) W1,   tr W1 = 1.

The pairing with a gate pair and measurement outcome is

    p(i | U1, U2) = tr[ (choi(U1) (x) choi(U2) (x) |i><i|) W ],

with the unnormalized trace-2 Choi convention.  The transposition placement
hidden in that formula is pinned operationally: ``build_comb_from_circuit``
turns an explicit prepare/route/measure circuit into a W, and the identity
above is required to reproduce direct statevector simulation exactly (it does,
with the conjugated-amplitude construction used below).

The objective Omega averages the score operators over the two promise
classes.  It is computed exactly from a finite unitary design, not sampled.
Omega and the comb constraints share a symmetry, so max tr(W Omega) over
combs is solved by ADMM in 20 real coordinates of the symmetric subspace
(see "block coordinates" below).  The solve returns a certified interval
around the optimum and the valid 32x32 comb that attains its lower end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gates import GatePair, stack_pairs
# unused here since the objective stopped sampling; perfbench still traces
# Haar sampling under the name qswitch.comb.haar_random_unitaries
from .gates import haar_random_unitaries  # noqa: F401
from .linalg import ID2, SY, SZ, choi, choi_vector, require_state, require_unitary, require_unitary_pair, tensor

__all__ = [
    "CombResult",
    "DIMS",
    "class_averaged_objective",
    "icosahedral_design",
    "objective_operator",
    "build_comb_from_circuit",
    "probability_from_comb",
    "comb_residuals",
    "project_comb_affine",
    "optimize_fixed_order",
    "evaluate_comb",
]

DIMS = [2, 2, 2, 2, 2]
DIM = 32

# ADMM settings: penalty and the stopping rule's certified gap
RHO = 0.5
GAP_TOL = 1e-10
MAX_ITER = 100_000


@dataclass
class CombResult:
    p_succ: float
    comb: np.ndarray
    iterations: int
    primal_residual: float
    lower: float  # certified interval around the optimum
    upper: float
    residuals: dict = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _basis_projector(i: int) -> np.ndarray:
    e = np.zeros((2, 2), dtype=complex)
    e[i, i] = 1.0
    return e


def class_averaged_objective(rs: np.ndarray) -> np.ndarray:
    """(S_0 averaged over commuting pairs + S_1 over anti-commuting pairs) / 2.

    Both promise classes are parametrized by a shared eigenbasis R (see
    ``gates``); the class averages are taken over the stack ``rs`` of bases,
    shape (n, 2, 2).  The commuting eigenphases are averaged analytically:
    the uniform phase kills the cross terms between the two spectral
    projectors of R, leaving the sum of their individual Choi operators.
    """
    rs = np.asarray(rs, dtype=complex)
    n = rs.shape[0]
    v = choi_vector(np.einsum("nak,nbk->knab", rs, rs.conj()))  # eigenprojector k of each R
    c = np.einsum("kni,knj->nij", v, v.conj())
    commuting = np.einsum("nab,ncd->acbd", c, c).reshape(16, 16) / n
    rs_dag = np.conjugate(np.swapaxes(rs, -2, -1))
    a1 = choi(rs @ SZ @ rs_dag)
    a2 = choi(rs @ SY @ rs_dag)
    anticommuting = np.einsum("nab,ncd->acbd", a1, a2).reshape(16, 16) / n
    m = np.kron(commuting, _basis_projector(0)) + np.kron(anticommuting, _basis_projector(1))
    return m / 2.0


def icosahedral_design() -> np.ndarray:
    """The 120 elements of the binary icosahedral group as SU(2) matrices.

    They are the unit quaternions at the vertices of the 600-cell: the 8
    permutations of (+-1, 0, 0, 0), the 16 points (+-1, +-1, +-1, +-1)/2 and
    the 96 even permutations of (+-phi, +-1, +-1/phi, 0)/2.  The vertices
    form a spherical 11-design on S^3, so the group is a unitary 5-design:
    its uniform average equals the Haar average of every polynomial of degree
    at most 5 in U and 5 in U^dag (Gross, Audenaert & Eisert,
    arXiv:quant-ph/0611002).
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    quats = [s * e for e in np.eye(4) for s in (1.0, -1.0)]
    quats += [np.array(s) / 2.0 for s in itertools.product((1.0, -1.0), repeat=4)]
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    for s1, s2, s3 in itertools.product((1.0, -1.0), repeat=3):
        base = np.array([s1 * phi, s2, s3 / phi, 0.0]) / 2.0
        quats += [base[list(p)] for p in even]
    a, b, c, d = np.array(quats).T
    return np.stack([np.stack([a + 1j * b, c + 1j * d], -1),
                     np.stack([-c + 1j * d, a - 1j * b], -1)], -2)


def objective_operator() -> np.ndarray:
    """The exact class-averaged objective Omega of the fixed-order SDP.

    Omega is of degree (4, 4) in each eigenbasis R and invariant under its
    global phase, so averaging over the icosahedral 5-design gives the Haar
    average exactly.
    """
    return class_averaged_objective(icosahedral_design())


# --------------------------------------------------------------------------
# circuit-built combs


def build_comb_from_circuit(
    prep: np.ndarray,
    v2: np.ndarray,
    v3: np.ndarray,
    measured_wire: int = 0,
) -> np.ndarray:
    """Comb of the circuit: prepare, gate slot 1, V2, gate slot 2, V3, measure Z.

    ``prep`` is a state on system (x) ancilla (system first, ancilla dimension
    inferred); ``v2`` and ``v3`` act on system (x) ancilla.  ``measured_wire``
    0 measures the system qubit, 1 measures the (two-dimensional) ancilla.
    """
    prep = require_state(np.ravel(prep))
    if prep.size % 2 != 0:
        raise ValueError("prep must live on system (x) ancilla with qubit system")
    da = prep.size // 2
    v2 = require_unitary(v2)
    v3 = require_unitary(v3)
    if v2.shape != (2 * da, 2 * da) or v3.shape != (2 * da, 2 * da):
        raise ValueError("v2/v3 dimension does not match prep")
    prep_r = prep.reshape(2, da)
    v2_r = v2.reshape(2, da, 2, da)
    v3_r = v3.reshape(2, da, 2, da)
    # T[o, k, p1, p2, p3, p4]: amplitude of final component (o, k) when the
    # slots are replaced by |p2><p1| and |p4><p3|
    t = np.einsum("okrm,smpl,ql->okqpsr", v3_r, v2_r, prep_r)
    if measured_wire == 0:
        pass  # outcome index o is the system wire, k runs over the ancilla
    elif measured_wire == 1:
        if da != 2:
            raise ValueError("ancilla must be a qubit to be measured")
        t = np.swapaxes(t, 0, 1)
    else:
        raise ValueError("measured_wire must be 0 or 1")
    t = t.reshape(2, da, 16)
    w = np.zeros((DIM, DIM), dtype=complex)
    for i in (0, 1):
        wi = np.einsum("kp,kq->pq", t[i].conj(), t[i])
        w += np.kron(wi, _basis_projector(i))
    return w


def probability_from_comb(w: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                          i: int | np.ndarray) -> np.ndarray:
    """tr(S_i W) for gates or stacks (..., 2, 2) of gates and outcomes ``i``.

    The score operator S_i = choi(U1) (x) choi(U2) (x) |i><i| is the outer
    square of x = v1 (x) v2 (x) |i>, with v the Choi vectors, so tr(S_i W)
    is the rank-one contraction <x|W|x>.  Results are clamped to [0, 1]
    within a 1e-8 guard band; outcomes must be integers.
    """
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
    """The vectors |j, m, a> of the gate wires in the comb's frame, shape (3, 16, 5, 3).

    Index 0 runs over j = 2, 1, 0; m over the 2j+1 spin states (zero-padded
    to 5) and a over the copies of spin j (zero-padded to 3).  Each copy
    couples the pairs (P1 P2) and (P3 P4): its top vector, at m = j, is built
    from |00>, |11>, the singlet and the m = 0 triplet t0 of each pair.
    Lowering the tops step by step gives every copy the same phases, so
    V^(x)4 acts alike on all.  The frame sigma_y (x) I (x) sigma_y (x) I is
    real, and so are the vectors.
    """
    # J-: each qubit in turn from |0> (up) to |1>, P1 the high bit
    flip = np.array([[0.0, 0.0], [1.0, 0.0]])
    lowering = sum(np.kron(np.kron(np.eye(2**k), flip), np.eye(8 >> k)) for k in range(4))
    up, down = np.eye(4)[[0, 3]]
    singlet, t0 = np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 1.0, 1.0, 0.0]]) / np.sqrt(2.0)
    tops = ([np.kron(up, up)],
            [np.kron(up, singlet), np.kron(singlet, up), (np.kron(up, t0) - np.kron(t0, up)) / np.sqrt(2.0)],
            [np.kron(singlet, singlet),
             (np.kron(up, down) - np.kron(t0, t0) + np.kron(down, up)) / np.sqrt(3.0)])
    frame = tensor(SY, ID2, SY, ID2).real
    q = np.zeros((3, 16, 5, 3))
    for s, (j, top) in enumerate(zip(SPINS, tops)):
        vecs = np.transpose(top)
        for m in range(2 * j + 1):
            if m:
                vecs = lowering @ vecs
                vecs /= np.linalg.norm(vecs, axis=0)
            q[s, :, m, :len(top)] = frame @ vecs
    return q


def _unit_blocks() -> np.ndarray:
    """The blocks M[i, j] of the 20 unit coordinates, shape (20, 6, 3, 3), zero-padded.

    Per block: the diagonal entries and, for each entry above it, the
    symmetric pair of entries times sqrt(1/2); all divided by sqrt(2j+1), the
    norm of I_{2j+1}, so that the coordinates are Frobenius-orthonormal.
    """
    units = []
    for slot in range(6):
        j, mult = SPINS[slot % 3], MULTIPLICITIES[slot % 3]
        for a, b in zip(*np.triu_indices(mult)):
            unit = np.zeros((6, 3, 3))
            unit[slot, a, b] = unit[slot, b, a] = 1.0 if a == b else np.sqrt(0.5)
            units.append(unit / np.sqrt(2 * j + 1))
    return np.array(units)


class _BlockCoordinates:
    """Frobenius-orthonormal coordinates of the symmetric real operators.

    ``basis`` holds the 20 real operators B_k (32x32); ``affine`` (20x20) and
    ``offset`` (the coordinates of I * 4/32) are ``project_comb_affine`` in
    these coordinates, read off one stacked call.  Built per solve, so that
    importing the package builds nothing.
    """

    def __init__(self) -> None:
        q = _schur_vectors()
        units = _unit_blocks()
        n = len(units)
        # on the gate wires, entry (a, b) of M_j is the operator sum_m |j, m, a><j, m, b|
        entries = np.einsum("spma,sqmb->sabpq", q, q).reshape(27, 256)
        gate_wires = (units.reshape(2 * n, 27) @ entries).reshape(n, 2, 16, 16)
        # B_k = sum_i (gate-wire operator of outcome i) (x) |i><i|
        self.basis = np.einsum("nipq,ij->npiqj", gate_wires, np.eye(2)).reshape(n, DIM, DIM)
        self.to_blocks = units.reshape(n, -1).T  # the 54 padded block entries of each B_k
        # <B_k, X> = (2j+1) <M_k, P> for X with blocks P, and <M_k, M_k> = 1/(2j+1)
        self.from_blocks = self.to_blocks.T / (self.to_blocks**2).sum(axis=0)[:, None]
        zero_and_basis = np.concatenate([np.zeros((1, DIM, DIM)), self.basis])
        projected = self.reduce(project_comb_affine(zero_and_basis))
        self.offset = projected[0]
        self.affine = (projected[1:] - self.offset).T

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

    ``omega`` must lie in the span of the coordinates: invariant under
    conj(V) (x) V (x) conj(V) (x) V (x) I, as the class-averaged objective
    is, and with real blocks; ValueError otherwise.  Each iteration applies
    the affine comb projection as a fixed 20x20 map plus an offset, read off
    ``project_comb_affine`` (with the linear objective folded into the
    proximal step at penalty ``RHO``), then projects onto the PSD cone with
    one batched real eigh of the six padded 3x3 blocks.  The coordinates
    are orthonormal, so the primal residual and the objective are those of
    the 32x32 operators.  Every 10th iteration ``_certificate`` turns the
    iterate into a certified interval [lower, upper] around the optimum,
    and ``history`` gains a row (iteration, objective of the iterate,
    primal residual, lower, upper); the solve stops as soon as upper -
    lower is at most ``GAP_TOL``, and raises RuntimeError if that has not
    happened after ``MAX_ITER`` iterations.

    The last iterate is PSD but off the comb subspace by the primal residual.
    The result holds instead the certified comb of the last check, a valid
    real 32x32 comb in the original frame, and its residuals; its objective
    is both ``p_succ`` and ``lower``.
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (DIM, DIM):
        raise ValueError(f"objective must be {DIM}x{DIM}, got shape {omega.shape}")
    coords = _BlockCoordinates()
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
        z = coords.coordinates((vec * np.maximum(lam, 0.0)[:, None, :]) @ np.swapaxes(vec, -2, -1))
        u = u + w - z
        # a check costs about one iteration, so checking every 10th adds about 10%
        if it % 10 == 0:
            certified, upper = _certificate(coords, target, z, u)
            lower = float(target @ certified)
            resid = float(np.linalg.norm(w - z))
            history.append({"iteration": it, "objective": float(target @ z),
                            "primal_residual": resid, "lower": lower, "upper": upper})
            if upper - lower <= GAP_TOL:
                comb = coords.embed(certified)
                return CombResult(p_succ=lower, comb=comb, iterations=it, primal_residual=resid,
                                  lower=lower, upper=upper, residuals=comb_residuals(comb),
                                  history=history)
    raise RuntimeError(f"ADMM did not reach a certified gap of {GAP_TOL} in {MAX_ITER} "
                       f"iterations (primal residual {np.linalg.norm(w - z):.3e})")


def evaluate_comb(w: np.ndarray, pairs: list[GatePair]) -> float:
    """Mean probability of the correct verdict over labeled gate pairs."""
    if len(pairs) == 0:
        raise ValueError("no pairs were given")
    u1, u2, port = stack_pairs(pairs)
    return float(np.mean(probability_from_comb(w, u1, u2, port)))
