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

from .gates import GatePair
# unused here since the objective stopped sampling; perfbench still traces
# Haar sampling under the name qswitch.comb.haar_random_unitaries
from .gates import haar_random_unitaries  # noqa: F401
from .linalg import SY, SZ, choi, partial_trace, require_unitary
from .switch import Verdict

__all__ = [
    "CombResult",
    "DIMS",
    "score_operator",
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


@dataclass
class CombResult:
    p_succ: float
    comb: np.ndarray
    iterations: int
    primal_residual: float
    converged: bool
    residuals: dict = field(default_factory=dict)


def _basis_projector(i: int) -> np.ndarray:
    e = np.zeros((2, 2), dtype=complex)
    e[i, i] = 1.0
    return e


def score_operator(u1: np.ndarray, u2: np.ndarray, i: int) -> np.ndarray:
    """choi(U1) (x) choi(U2) (x) |i><i| on wire order P1P2 P3P4 P5."""
    if i not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    return np.kron(np.kron(choi(u1), choi(u2)), _basis_projector(i))


def _choi_batch(us: np.ndarray) -> np.ndarray:
    """Stack of Choi operators for a stack of 2x2 unitaries, shape (n, 4, 4)."""
    v = np.swapaxes(us, -2, -1).reshape(-1, 4)
    return np.einsum("ni,nj->nij", v, v.conj())


def _commuting_choi_avg_batch(rs: np.ndarray) -> np.ndarray:
    """E_theta choi(R diag(1, e^{i theta}) R^dag) for each eigenbasis R.

    The uniform phase kills the cross terms between the two spectral
    projectors, leaving the sum of their individual Choi operators.
    """
    projs = np.einsum("nak,nbk->knab", rs, rs.conj())  # eigenprojector k of each R
    return _choi_batch(projs[0]) + _choi_batch(projs[1])


def class_averaged_objective(rs: np.ndarray) -> np.ndarray:
    """(S_0 averaged over commuting pairs + S_1 over anti-commuting pairs) / 2.

    Both promise classes are parametrized by a shared eigenbasis R (see
    ``gates``); the class averages are taken over the stack ``rs`` of bases,
    shape (n, 2, 2).  The commuting eigenphases are averaged analytically.
    """
    rs = np.asarray(rs, dtype=complex)
    n = rs.shape[0]
    c = _commuting_choi_avg_batch(rs)
    commuting = np.einsum("nab,ncd->acbd", c, c).reshape(16, 16) / n
    rs_dag = np.conjugate(np.swapaxes(rs, -2, -1))
    a1 = _choi_batch(rs @ SZ @ rs_dag)
    a2 = _choi_batch(rs @ SY @ rs_dag)
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
    prep = np.asarray(prep, dtype=complex).reshape(-1)
    if prep.size % 2 != 0:
        raise ValueError("prep must live on system (x) ancilla with qubit system")
    da = prep.size // 2
    if abs(np.linalg.norm(prep) - 1.0) > 1e-10:
        raise ValueError("prep state must be normalized")
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


def probability_from_comb(w: np.ndarray, u1: np.ndarray, u2: np.ndarray, i: int) -> float:
    """tr(S_i W), clamped to [0, 1] within a 1e-8 guard band."""
    p = float(np.trace(score_operator(u1, u2, i) @ w).real)
    if p < -1e-8 or p > 1.0 + 1e-8:
        raise ValueError(f"comb produced out-of-range probability {p}")
    return min(max(p, 0.0), 1.0)


# --------------------------------------------------------------------------
# comb constraints: residuals and affine projection


def _trace_and_replace(x: np.ndarray, wires: tuple[int, ...]) -> np.ndarray:
    """Replace the given wires of a 5-qubit operator by the maximally mixed state."""
    t = x.reshape(DIMS + DIMS)
    n = 5
    for k in sorted(wires, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + n)
        n -= 1
    reduced = t.reshape(2 ** n, 2 ** n) / (2 ** len(wires))
    # re-insert identity wires at the traced positions
    keep = [k for k in range(5) if k not in wires]
    full = np.kron(reduced, np.eye(2 ** len(wires), dtype=complex))
    order = keep + sorted(wires)
    perm = np.argsort(order)
    t = full.reshape([2] * 10)
    t = np.transpose(t, list(perm) + [5 + p for p in perm])
    return t.reshape(DIM, DIM)


def comb_residuals(w: np.ndarray) -> dict:
    """Frobenius residuals of the comb constraints plus the minimum eigenvalue."""
    w = np.asarray(w, dtype=complex)
    herm = float(np.linalg.norm(w - w.conj().T))
    tr5 = partial_trace(w, DIMS, {4})
    w2 = partial_trace(tr5, [2, 2, 2, 2], {3}) / 2.0  # on P1P2P3
    slot2 = float(np.linalg.norm(tr5 - np.kron(w2, np.eye(2))))
    tr3 = partial_trace(w2, [2, 2, 2], {2})
    w1 = partial_trace(tr3, [2, 2], {1}) / 2.0  # on P1
    # tr3 should equal W1 (x) I_P2 on wire order P1 P2
    slot1 = float(np.linalg.norm(tr3 - np.kron(w1, np.eye(2))))
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
    maximally mixed state; composing the complements collapses to the five
    terms below.  The trace is then fixed along the identity direction.
    """
    x = np.asarray(x, dtype=complex)
    y = (
        x
        - _trace_and_replace(x, (4,))
        + _trace_and_replace(x, (3, 4))
        - _trace_and_replace(x, (2, 3, 4))
        + _trace_and_replace(x, (1, 2, 3, 4))
    )
    y += (4.0 - np.trace(y).real) / DIM * np.eye(DIM)
    return y


def _project_psd(x: np.ndarray) -> np.ndarray:
    h = (x + x.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def optimize_fixed_order(
    omega: np.ndarray,
    rho: float = 1.0,
    max_iter: int = 100_000,
    primal_tol: float = 1e-8,
    objective_tol: float = 1e-9,
    over_relaxation: float = 1.6,
) -> CombResult:
    """Maximize tr(W Omega) over valid combs by ADMM splitting.

    Alternates the exact affine-subspace projection (with the linear objective
    folded into the proximal step) against the PSD-cone projection.  Stops
    when the primal residual is below ``primal_tol`` and the objective has
    moved less than ``objective_tol`` over the last 100 iterations.
    """
    omega_m = np.asarray(omega)
    omega_m = (omega_m + omega_m.conj().T) / 2.0
    z = np.eye(DIM, dtype=complex) * (4.0 / DIM)
    u = np.zeros((DIM, DIM), dtype=complex)
    objective_history: list[float] = []
    w = z
    resid = np.inf
    for it in range(1, max_iter + 1):
        w = project_comb_affine(z - u + omega_m / rho)
        w_relaxed = over_relaxation * w + (1.0 - over_relaxation) * z
        z = _project_psd(w_relaxed + u)
        u = u + w_relaxed - z
        resid = float(np.linalg.norm(w - z))
        obj = float(np.trace(omega_m @ z).real)
        objective_history.append(obj)
        if (
            it >= 100
            and resid <= primal_tol
            and abs(objective_history[-1] - objective_history[-100]) <= objective_tol
        ):
            break
    # z is PSD by construction and affine-feasible up to the primal residual
    residuals = comb_residuals(z)
    p_succ = float(np.trace(omega_m @ z).real)
    converged = resid <= primal_tol
    if not converged:
        raise RuntimeError(
            f"ADMM did not converge in {max_iter} iterations "
            f"(primal residual {resid:.3e}, residuals {residuals})"
        )
    return CombResult(
        p_succ=p_succ,
        comb=z,
        iterations=it,
        primal_residual=resid,
        converged=converged,
        residuals=residuals,
    )


def evaluate_comb(w: np.ndarray, pairs: list[GatePair]) -> float:
    """Mean probability of the correct verdict over labeled gate pairs."""
    total = 0.0
    for pair in pairs:
        if pair.label is Verdict.COMMUTE:
            total += probability_from_comb(w, pair.u1, pair.u2, 0)
        elif pair.label is Verdict.ANTICOMMUTE:
            total += probability_from_comb(w, pair.u1, pair.u2, 1)
        else:
            raise ValueError("pairs must be labeled COMMUTE or ANTICOMMUTE")
    return total / len(pairs)
