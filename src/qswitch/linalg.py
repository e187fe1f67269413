"""Dense complex linear algebra for few-qubit operators.

Everything here works on plain numpy arrays of complex128.  Dimensions stay
at 32x32 or below, so all routines are dense and allocation-happy on purpose.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "SX",
    "SY",
    "SZ",
    "HAD",
    "PAULI_GATES",
    "is_unitary",
    "require_unitary",
    "require_state",
    "tensor",
    "partial_trace",
    "frobenius_distance_up_to_phase",
    "choi",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULI_GATES = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

UNITARY_TOL = 1e-10


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) <= tol


def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Return ``u`` as a complex array, raising ValueError if it is not unitary."""
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u.real)) or not np.all(np.isfinite(u.imag)):
        raise ValueError("matrix has non-finite entries")
    if not is_unitary(u, tol):
        resid = np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]))
        raise ValueError(f"matrix is not unitary (residual {resid:.3e})")
    return u


def require_state(psi: np.ndarray, dim: int | None = None, tol: float = UNITARY_TOL) -> np.ndarray:
    """Return ``psi`` as a normalized complex vector, raising ValueError otherwise."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if dim is not None and psi.size != dim:
        raise ValueError(f"state has dimension {psi.size}, expected {dim}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= tol:  # also rejects a NaN norm
        raise ValueError(f"state is not normalized (norm {norm:.12f})")
    return psi


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m: np.ndarray, dims: list[int], traced: set[int] | list[int]) -> np.ndarray:
    """Trace out the subsystems in ``traced`` from a square operator.

    ``dims`` lists the subsystem dimensions in tensor order; their product must
    equal the side length of ``m``.  The result acts on the remaining
    subsystems in their original order, and tr(result) == tr(m).
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    traced = set(traced)
    if not traced <= set(range(len(dims))):
        raise ValueError(f"traced indices {traced} out of range for {len(dims)} subsystems")
    n = len(dims)
    t = m.reshape(dims + dims)
    # contract traced row/column axes pairwise, highest index first so the
    # remaining axis numbers stay valid
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + n)
        n -= 1
    keep = int(np.prod([d for i, d in enumerate(dims) if i not in traced]))
    return t.reshape(keep, keep)


def frobenius_distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """min over real phi of ||a - e^{i phi} b||_F.

    The minimizing phase is the argument of tr(a^dag b); evaluating the norm
    at that phase directly avoids the cancellation that the equivalent
    sqrt(|a|^2 + |b|^2 - 2|tr(a^dag b)|) form suffers when a ~ e^{i phi} b.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.trace(a.conj().T @ b)
    phase = overlap.conjugate() / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def choi_vector(u: np.ndarray) -> np.ndarray:
    """The vector sum_i |i> (x) U|i>, whose outer square is the Choi operator."""
    u = np.asarray(u, dtype=complex)
    return u.T.reshape(-1)


def choi(u: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) U |i><j| U^dag of a 2x2 unitary.

    Unnormalized convention: rank 1, trace 2, positive semidefinite.
    """
    u = require_unitary(u)
    v = choi_vector(u)
    return np.outer(v, v.conj())
