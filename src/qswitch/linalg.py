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
    "frobenius_norm",
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
    # no unitary has a larger entry; this rejects NaN and inf and keeps the residual finite
    if not np.abs(u).max() <= 1.0 + UNITARY_TOL:
        raise ValueError("matrix has an entry that is non-finite or above 1 in modulus")
    resid = _unitarity_residual(u).max()
    if not resid <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (residual {resid:.3e})")
    return u


def require_state(psi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``psi`` as a complex array, raising ValueError unless it is a
    normalized vector or a stack (..., dim) of them."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1 or (dim is not None and psi.shape[-1] != dim):
        raise ValueError(f"state has shape {psi.shape}, expected (..., {dim or 'n'})")
    if not np.abs(psi).max() <= 1.0 + UNITARY_TOL:  # as in require_unitary
        raise ValueError("state has an entry that is non-finite or above 1 in modulus")
    dev = np.abs(np.linalg.norm(psi, axis=-1) - 1.0).max()
    if not dev <= UNITARY_TOL:
        raise ValueError(f"state is not normalized (norm off by {dev:.3e})")
    return psi


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def frobenius_norm(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., m, n).

    Summed as ``np.linalg.norm`` sums one matrix, so that a stacked result is
    bit-equal to per-matrix calls (the ``axis`` form of ``norm`` is not).
    """
    flat = np.asarray(x, dtype=complex).reshape(np.shape(x)[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def frobenius_distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """min over real phi of ||a - e^{i phi} b||_F, for one pair of matrices (a float)
    or for stacks (..., m, n) of them (an array).

    The minimizing phase is the argument of tr(a^dag b); evaluating the norm
    at that phase directly avoids the cancellation that the equivalent
    sqrt(|a|^2 + |b|^2 - 2|tr(a^dag b)|) form suffers when a ~ e^{i phi} b.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.trace(np.swapaxes(a.conj(), -2, -1) @ b, axis1=-2, axis2=-1)
    size = np.hypot(overlap.real, overlap.imag)  # as abs() of one complex; np.abs differs
    phase = np.where(size > 0, overlap.conj() / np.where(size > 0, size, 1.0), 1.0)
    dist = frobenius_norm(a - phase[..., None, None] * b)
    return dist if dist.ndim else float(dist)


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
