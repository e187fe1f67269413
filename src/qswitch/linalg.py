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
    "require_unitary",
    "require_state",
    "tensor",
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


def _unitarity_residual(u: np.ndarray) -> np.ndarray:
    """Frobenius norm of U U^dag - I for each matrix of a stack (..., n, n)."""
    return np.linalg.norm(u @ np.conj(np.swapaxes(u, -2, -1)) - np.eye(u.shape[-1]), axis=(-2, -1))


def require_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as a complex array, raising ValueError unless it is a unitary
    or a stack (..., n, n) of unitaries."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    resid = _unitarity_residual(u).max()
    if not resid <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (residual {resid:.3e})")
    return u


def require_state(psi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``psi`` as a normalized complex vector, raising ValueError otherwise."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if dim is not None and psi.size != dim:
        raise ValueError(f"state has dimension {psi.size}, expected {dim}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= UNITARY_TOL:  # also rejects a NaN norm
        raise ValueError(f"state is not normalized (norm {norm:.12f})")
    return psi


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


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
    """The vector sum_i |i> (x) U|i>, whose outer square is the Choi operator.

    Works on a matrix or a stack (..., n, n) of them, unitary or not.
    """
    u = np.asarray(u, dtype=complex)
    return np.swapaxes(u, -2, -1).reshape(u.shape[:-2] + (-1,))


def choi(u: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) U |i><j| U^dag of a 2x2 unitary or a stack of them.

    Unnormalized convention: rank 1, trace 2, positive semidefinite.
    """
    v = choi_vector(require_unitary(u))
    return np.einsum("...i,...j->...ij", v, v.conj())
