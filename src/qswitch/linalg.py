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
    "det2",
    "require_state",
    "read_only",
    "frobenius_norm",
    "frobenius_distance_up_to_phase",
    "choi_vector",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that every caller shares read-only, so that no caller can change them."""
    for x in arrays:
        x.flags.writeable = False


read_only(ID2, SX, SY, SZ, HAD)  # require_unitary hands back these very objects

PAULI_GATES = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

UNITARY_TOL = 1e-10

_ENTRY_MESSAGE = "matrix has an entry that is non-finite or above 1 in modulus"


def _max(x: np.ndarray) -> float:
    """Largest entry of ``x``; NaN if any entry is NaN, and 0.0 for an empty stack."""
    return np.maximum.reduce(x, axis=None, initial=0.0)


def require_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as a complex array, raising ValueError unless it is a unitary
    or a stack (..., n, n) of unitaries (two gates: ``require_unitary_pair``)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {u.shape}")
    _check_unitary(u, np.eye(u.shape[-1], dtype=complex))
    return u


def _check_unitary(u: np.ndarray, eye: np.ndarray) -> None:
    """Raise ValueError unless each matrix of the complex stack ``u`` (..., n, n) is unitary; ``eye`` is I_n."""
    # A stack of unitaries has sum |u_ij|^2 = u.size / n, so this one BLAS sum, which raises no
    # floating-point warning, admits every stack within the tolerance, rejects NaN and inf, and
    # bounds every entry, so that the Gram product below stays finite
    if not np.vdot(u, u).real <= 2 * u.size:
        raise ValueError(_ENTRY_MESSAGE)
    # U U^dag - I: entry (i, j) is row j of U dotted into row i, one stack-wide vecdot rather than a
    # BLAS call per matrix; x - 0 is x to the bit, so subtracting I changes only the diagonal
    dev = np.vecdot(u[..., None, :, :], u[..., :, None, :]) - eye
    # the summed squared residual bounds each matrix's, so only a stack it fails is checked per matrix
    if not np.vdot(dev, dev).real <= UNITARY_TOL**2:
        rows = dev.reshape(dev.shape[:-2] + (-1,))  # a failing stack is not empty
        sq = _max(np.vecdot(rows, rows).real)
        if not sq <= UNITARY_TOL**2:
            # no unitary has a larger entry: the message names the entry bound where it fails
            if not _max(np.abs(u)) <= 1.0 + UNITARY_TOL:
                raise ValueError(_ENTRY_MESSAGE)
            raise ValueError(f"matrix is not unitary (residual {np.sqrt(sq):.3e})")


def require_unitary_pair(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Two qubit gates or stacks (..., 2, 2) of them, broadcast against each other
    and checked in one pass, as one array (..., 4, 2): u1 over u2."""
    u1, u2 = np.asarray(u1, dtype=complex), np.asarray(u2, dtype=complex)
    if u1.shape[-2:] != (2, 2) or u2.shape[-2:] != (2, 2):
        bad = u1 if u1.shape[-2:] != (2, 2) else u2
        # a non-square or non-unitary gate fails require_unitary with its own message
        raise ValueError(f"expected 2x2 gates, got shape {require_unitary(bad).shape}")
    if u1.shape != u2.shape:
        u1, u2 = np.broadcast_arrays(u1, u2)
    w = np.concatenate((u1, u2), axis=-2)
    _check_unitary(w.reshape(w.shape[:-2] + (2, 2, 2)), ID2)
    return w


def both_orders(u1: np.ndarray, u2: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U1 U2 psi and U2 U1 psi for qubit gates (checked in one pass) and states (not checked),
    from one product: with w = [U1; U2], w [U1 psi, U2 psi] holds both orders."""
    w = require_unitary_pair(u1, u2)
    v = w @ psi[..., None]
    y = w @ v.reshape(v.shape[:-2] + (2, 2)).mT
    return y[..., :2, 1], y[..., 2:, 0]  # U1 (U2 psi), U2 (U1 psi)


def det2(u: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a stack (..., 2, 2), from its entries: no LAPACK call per matrix."""
    return u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]


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
