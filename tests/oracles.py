"""Brute-force references that the tests compare the library against.

Nothing in the package calls these: each builds by hand what a library
routine forms in closed form, so a test can check one against the other.
"""

import itertools

import numpy as np

from qswitch.comb import DIM
from qswitch.linalg import (
    HAD, ID2, SY, SZ, both_orders, choi_vector, require_state, require_unitary, require_unitary_pair,
)
from qswitch.switch import PLUS


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def choi(u: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) U |i><j| U^dag of a 2x2 unitary or a stack of them.

    Unnormalized convention: rank 1, trace 2, positive semidefinite.
    """
    v = choi_vector(require_unitary(u))
    return np.einsum("...i,...j->...ij", v, v.conj())


def two_switch_output_circuit(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Brute-force construction: controlled gate orders, then Hadamard.

    Starts from (|0>+|1>)/sqrt2 (x) psi, applies U1 U2 on the c=0 branch and
    U2 U1 on the c=1 branch, then a Hadamard on the control.
    """
    u1, u2 = np.split(require_unitary_pair(u1, u2), 2, axis=-2)
    joint = tensor(PLUS, require_state(psi, 2))[..., None]
    controlled = tensor(np.diag([1.0, 0.0]), u1 @ u2) + tensor(np.diag([0.0, 1.0]), u2 @ u1)
    return (tensor(HAD, ID2) @ controlled @ joint)[..., 0]


def fixed_order_apply(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray, order: int | str) -> np.ndarray:
    """Apply the gates in a definite order: '12' means U1 acts first (U2 U1 psi)."""
    orders = dict(zip(("21", "12"), both_orders(u1, u2, require_state(psi, 2))))
    if str(order) not in orders:
        raise ValueError(f"order must be '12' or '21', got {order!r}")
    return orders[str(order)]


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

    ``comb.probability_from_comb`` on this W must reproduce the circuit's
    statevector simulation, which pins the transposition placement in the
    comb pairing.
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
    w = np.zeros((16, 2, 16, 2), dtype=complex)
    w[:, [0, 1], :, [0, 1]] = np.einsum("ikp,ikq->ipq", t.conj(), t)  # outcome i on P5
    return w.reshape(DIM, DIM)


def face_columns(span: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The face columns (54, n) of ``comb._face_pair``, read off a zeroed array.

    The array holds, at (block, pair, block), the 3x3 entries of
    v_a v_c^T + v_c v_a^T for every block and every pair a <= c of the
    block's columns ``vec``, and zeros elsewhere.  The face's columns are its
    (block, pair) rows whose two vectors ``span`` (6x3) marks, in that order.
    """
    a, c = np.triu_indices(3)
    va, vc = vec.mT[:, a], vec.mT[:, c]  # (6 blocks, 6 pairs, 3)
    spans = np.zeros((6, 6, 6, 3, 3))
    spans[np.arange(6), :, np.arange(6)] = va[..., :, None] * vc[..., None, :] + vc[..., :, None] * va[..., None, :]
    return spans[span[:, a] & span[:, c]].reshape(-1, 54).T


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


def class_average(rs: np.ndarray) -> np.ndarray:
    """(S_0 averaged over commuting pairs + S_1 over anti-commuting pairs) / 2,
    the class averages taken over the stack ``rs`` (n, 2, 2) of shared eigenbases.

    The commuting eigenphases are averaged analytically: the uniform phase
    kills the cross terms between the two spectral projectors of R, leaving
    the sum C of their Choi operators, so the commuting class averages
    C (x) C.  The anti-commuting class averages choi(R sz R^dag) (x)
    choi(R sy R^dag).  Each class average is summed by einsum and placed on
    its outcome by np.kron.  Omega is of degree (4, 4) in R and invariant
    under its global phase, so over ``icosahedral_design()`` this is Omega
    exactly, and over Haar samples it converges to Omega.
    """
    rs = np.asarray(rs, dtype=complex)
    v = np.swapaxes(np.einsum("nak,nbk->knab", rs, rs.conj()), -2, -1).reshape(2, -1, 4)
    c = np.einsum("kni,knj->nij", v, v.conj())
    rs_dag = np.conj(np.swapaxes(rs, -2, -1))
    a1, a2 = choi(rs @ SZ @ rs_dag), choi(rs @ SY @ rs_dag)
    commuting = np.einsum("nab,ncd->acbd", c, c).reshape(16, 16) / len(rs)
    anticommuting = np.einsum("nab,ncd->acbd", a1, a2).reshape(16, 16) / len(rs)
    return (np.kron(commuting, np.diag([1.0, 0.0])) + np.kron(anticommuting, np.diag([0.0, 1.0]))) / 2
