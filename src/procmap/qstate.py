"""Dense complex-matrix kernels and qubit-state helpers shared by all modules.

All operations are pure functions on numpy arrays; `dagger`, `hermiticity_residual` and the Bloch pair
`state_from_bloch` / `bloch_vector`, the only coordinate helpers (a qubit operator as b_j = Tr(rho sigma_j)),
also take stacks of matrices (..., n, n) and of 3-vectors (..., 3).  States are plain complex ndarrays and
validation is explicit (call `validate_density_matrix` / `validate_unitary` where a guarantee is needed)
so intermediate unnormalized matrices flow freely.  `array_key` and `keyed_array` serve the process caches of
`dynamics` and `scenarios`; `read_only` marks what a cache or a constant table hands to every caller.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-10
UNITARY_TOL = 1e-12

# The system is one qubit; every other size is read off the arrays.
DIM_SYS = 2

IDENTITY_2 = np.eye(2, dtype=complex)

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)


def dagger(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.asarray(mat).conj(), -1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices with the system (first factor) index major.

    One broadcast product: np.kron's elementwise products, bit for bit, without its set-up.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def state_from_bloch(b) -> np.ndarray:
    """Qubit state (1/2)(1 + sum_j b_j sigma_j), or a stack of them for b (..., 3); a projector when |b| = 1."""
    b = np.asarray(b, dtype=float)
    out = np.broadcast_to(IDENTITY_2, b.shape[:-1] + (2, 2))
    for j, sigma in enumerate(PAULIS):
        out = out + b[..., j, None, None] * sigma
    return 0.5 * out


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector b_j = Tr(rho sigma_j) of a Hermitian rho = (1/2)(tr[rho] + b.sigma); b (..., 3) for a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if not hermiticity_residual(rho) <= STATE_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.einsum("...ij,kji->...k", rho, PAULIS).real  # einsum, not `@`: see bilinear_tomo._PROBES


def hermiticity_residual(mat: np.ndarray) -> float:
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat - dagger(mat)))) if mat.size else 0.0


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, after marking it read-only: for an array that a cache or a constant table hands to every caller."""
    a.flags.writeable = False
    return a


def array_key(a) -> tuple[bytes, tuple[int, ...], str]:
    """Array `a` as a cache key: its bytes, shape and dtype; `keyed_array(*key)` is a read-only copy of `a`."""
    a = np.asarray(a)
    return a.tobytes(), a.shape, a.dtype.str


def keyed_array(data: bytes, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    return np.frombuffer(data, dtype).reshape(shape)


def validate_density_matrix(rho: np.ndarray, what: str = "density matrix") -> None:
    """Raise ValueError, naming `what`, unless rho is Hermitian, unit-trace, and positive within STATE_TOL (no NaN)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{what} must be square, got shape {rho.shape}")
    res = hermiticity_residual(rho)
    if not res <= STATE_TOL:
        raise ValueError(f"{what} not Hermitian (residual {res:.3e})")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= STATE_TOL:
        raise ValueError(f"{what} trace {tr:.12g} != 1")
    herm = 0.5 * (rho + dagger(rho))
    try:  # a Cholesky factor of herm + (STATE_TOL / 2) 1 proves positivity, and unlike `@` slows no later JSON work
        np.linalg.cholesky(herm + 0.5 * STATE_TOL * np.eye(len(herm)))
    except np.linalg.LinAlgError:  # else the smallest eigenvalue decides
        w = np.linalg.eigvalsh(herm)
        if not w[0] >= -STATE_TOL:
            raise ValueError(f"{what} has negative eigenvalue {w[0]:.3e}") from None


def validate_unitary(u: np.ndarray) -> None:
    """Raise ValueError unless u'u = 1 within UNITARY_TOL (max-abs entry)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    res = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))
    if not res <= UNITARY_TOL:  # a NaN residual fails too
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")

