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
The optimization max tr(W Omega) over combs is solved by ADMM splitting:
exact projection onto the affine comb subspace alternating with projection
onto the PSD cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gates import GatePair, stack_pairs
# unused here since the objective stopped sampling; perfbench still traces
# Haar sampling under the name qswitch.comb.haar_random_unitaries
from .gates import haar_random_unitaries  # noqa: F401
from .linalg import SY, SZ, choi, choi_vector, require_state, require_unitary

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

# ADMM settings: penalty, over-relaxation and the two stopping tolerances
RHO = 1.0
OVER_RELAXATION = 1.6
PRIMAL_TOL = 1e-8
OBJECTIVE_TOL = 1e-9
MAX_ITER = 100_000


@dataclass
class CombResult:
    p_succ: float
    comb: np.ndarray
    iterations: int
    primal_residual: float
    residuals: dict = field(default_factory=dict)


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
    prep = require_state(prep)
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
    within a 1e-8 guard band.
    """
    i = np.asarray(i)
    if not np.isin(i, (0, 1)).all():
        raise ValueError("outcome must be 0 or 1")
    v1 = choi_vector(require_unitary(u1))
    v2 = choi_vector(require_unitary(u2))
    y = (v1[..., :, None] * v2[..., None, :]).reshape(v1.shape[:-1] + (16,))
    blocks = np.asarray(w).reshape(16, 2, 16, 2).transpose(1, 3, 0, 2)[[0, 1], [0, 1]]
    p = np.einsum("...a,...ab,...b->...", y.conj(), blocks[i], y).real
    bad = (p < -1e-8) | (p > 1.0 + 1e-8)
    if np.any(bad):
        raise ValueError(f"comb produced out-of-range probability {p[bad][0]}")
    return np.clip(p, 0.0, 1.0)


# --------------------------------------------------------------------------
# comb constraints: residuals and affine projection


def _tail_traces(x: np.ndarray) -> list[np.ndarray]:
    """[x, tr_P5 x, tr_P4P5 x, tr_P3P4P5 x, tr_P2..P5 x] of a 32x32 operator.

    Every comb constraint traces a tail of the wire order, so each entry is
    the previous one with its last qubit traced out.
    """
    traces = [x]
    for m in (16, 8, 4, 2):
        traces.append(traces[-1].reshape(m, 2, m, 2).trace(axis1=1, axis2=3))
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
    """Orthogonal projection onto the affine comb subspace.

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
    y += (4.0 - np.trace(y).real) / DIM * np.eye(DIM)
    return y


def _project_psd(x: np.ndarray) -> np.ndarray:
    h = (x + x.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def optimize_fixed_order(omega: np.ndarray) -> CombResult:
    """Maximize tr(W Omega) over valid combs by ADMM splitting.

    Alternates the exact affine-subspace projection ``project_comb_affine``
    (with the linear objective folded into the proximal step at penalty
    ``RHO``, relaxed by ``OVER_RELAXATION``) against the PSD-cone projection.
    Stops when the primal residual is below ``PRIMAL_TOL`` and the objective
    has moved less than ``OBJECTIVE_TOL`` over the last 100 iterations;
    raises RuntimeError if that has not happened after ``MAX_ITER``.
    """
    omega_m = np.asarray(omega)
    omega_m = (omega_m + omega_m.conj().T) / 2.0
    z = np.eye(DIM, dtype=complex) * (4.0 / DIM)
    u = np.zeros((DIM, DIM), dtype=complex)
    objective_history: list[float] = []
    w = z
    resid = np.inf
    for it in range(1, MAX_ITER + 1):
        w = project_comb_affine(z - u + omega_m / RHO)
        w_relaxed = OVER_RELAXATION * w + (1.0 - OVER_RELAXATION) * z
        z = _project_psd(w_relaxed + u)
        u = u + w_relaxed - z
        resid = float(np.linalg.norm(w - z))
        obj = float(np.trace(omega_m @ z).real)
        objective_history.append(obj)
        if (
            it >= 100
            and resid <= PRIMAL_TOL
            and abs(objective_history[-1] - objective_history[-100]) <= OBJECTIVE_TOL
        ):
            break
    # z is PSD by construction and affine-feasible up to the primal residual
    residuals = comb_residuals(z)
    p_succ = float(np.trace(omega_m @ z).real)
    if not resid <= PRIMAL_TOL:
        raise RuntimeError(
            f"ADMM did not converge in {MAX_ITER} iterations "
            f"(primal residual {resid:.3e}, residuals {residuals})"
        )
    return CombResult(
        p_succ=p_succ,
        comb=z,
        iterations=it,
        primal_residual=resid,
        residuals=residuals,
    )


def evaluate_comb(w: np.ndarray, pairs: list[GatePair]) -> float:
    """Mean probability of the correct verdict over labeled gate pairs."""
    u1, u2, port = stack_pairs(pairs)
    return float(np.mean(probability_from_comb(w, u1, u2, port)))
