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
    "require_unitary_pair",
    "both_orders",
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

for _const in (ID2, SX, SY, SZ, HAD):
    _const.flags.writeable = False  # require_unitary hands back these very objects

PAULI_GATES = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

UNITARY_TOL = 1e-10


def _max(x: np.ndarray) -> float:
    """Largest entry of ``x``; NaN if any entry is NaN, and 0.0 for an empty stack."""
    return np.maximum.reduce(x, axis=None, initial=0.0)


def require_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as a complex array, raising ValueError unless it is a unitary
    or a stack (..., n, n) of unitaries (two gates: ``require_unitary_pair``)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {u.shape}")
    # no unitary has a larger entry; this rejects NaN and inf and keeps the residual finite
    if not _max(np.abs(u)) <= 1.0 + UNITARY_TOL:
        raise ValueError("matrix has an entry that is non-finite or above 1 in modulus")
    n = u.shape[-1]
    # U U^dag - I as rows of n*n entries; the subtraction touches only this fresh product
    dev = (u @ u.mT.conj()).reshape(u.shape[:-2] + (n * n,))
    dev[..., :: n + 1] -= 1.0
    resid = np.sqrt(_max(np.vecdot(dev, dev).real))  # largest Frobenius norm of the stack
    if not resid <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (residual {resid:.3e})")
    return u


def require_unitary_pair(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Two qubit gates or stacks (..., 2, 2) of them, broadcast against each other
    and checked by one ``require_unitary`` call, as one array (..., 4, 2): u1 over u2."""
    u1, u2 = np.asarray(u1, dtype=complex), np.asarray(u2, dtype=complex)
    for u in (u1, u2):
        if u.shape[-2:] != (2, 2):  # a non-square or non-unitary u fails require_unitary with its message
            raise ValueError(f"expected 2x2 gates, got shape {require_unitary(u).shape}")
    if u1.shape != u2.shape:
        u1, u2 = np.broadcast_arrays(u1, u2)
    w = np.concatenate((u1, u2), axis=-2)
    require_unitary(w.reshape(w.shape[:-2] + (2, 2, 2)))
    return w


def both_orders(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U1 U2 psi and U2 U1 psi for qubit gates (checked in one pass) and states (not checked),
    from one product: with w = [U1; U2], w [U1 psi, U2 psi] holds both orders."""
    w = require_unitary_pair(u1, u2)
    v = w @ psi[..., None]
    y = w @ v.reshape(v.shape[:-2] + (2, 2)).mT
    return y[..., :2, 1], y[..., 2:, 0]  # U1 (U2 psi), U2 (U1 psi)


def require_state(psi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``psi`` as a complex array, raising ValueError unless it is a
    normalized vector or a stack (..., dim) of them."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1 or (dim is not None and psi.shape[-1] != dim):
        raise ValueError(f"state has shape {psi.shape}, expected (..., {dim or 'n'})")
    if not _max(np.abs(psi)) <= 1.0 + UNITARY_TOL:  # as in require_unitary
        raise ValueError("state has an entry that is non-finite or above 1 in modulus")
    dev = _max(np.abs(np.sqrt(np.vecdot(psi, psi).real) - 1.0))
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
    x = np.asarray(x, dtype=complex)
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))  # not -1: stacks may be empty
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
    n = u.shape[-1]
    return np.swapaxes(u, -2, -1).reshape(u.shape[:-2] + (n * n,))  # not -1: stacks may be empty


def choi(u: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) U |i><j| U^dag of a 2x2 unitary or a stack of them.

    Unnormalized convention: rank 1, trace 2, positive semidefinite.
    """
    v = choi_vector(require_unitary(u))
    return np.einsum("...i,...j->...ij", v, v.conj())
