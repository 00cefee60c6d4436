"""Dense complex-matrix kernels and qubit-state helpers shared by all modules.

All operations are pure functions on numpy arrays; states are plain complex
ndarrays and validation is explicit (call `validate_density_matrix` /
`validate_unitary` where a guarantee is needed) so that intermediate
unnormalized matrices can flow freely.
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
    return np.asarray(mat).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices with the system (first factor) index major.

    One broadcast product: np.kron's elementwise products, bit for bit, without its set-up.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def conjugate_system(k: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """(K x 1) joint (K x 1)' for an operator K on the system factor, without forming K x 1."""
    k, joint = np.asarray(k, dtype=complex), np.asarray(joint, dtype=complex)
    for _ in range(2):  # K contracts the system row index; the dagger turns it onto the columns
        joint = dagger((k @ joint.reshape(k.shape[1], -1)).reshape(joint.shape))
    return joint


def partial_trace_sys(joint: np.ndarray) -> np.ndarray:
    """Trace out the qubit system, leaving the environment marginal; the reshape rejects any other shape."""
    dim_env = len(joint) // DIM_SYS
    blocks = np.asarray(joint, dtype=complex).reshape(DIM_SYS, dim_env, DIM_SYS, dim_env)
    return np.einsum("iaib->ab", blocks)


def pauli_combination(a0: float, a: np.ndarray) -> np.ndarray:
    """Hermitian combination a0*1 + sum_j a_j sigma_j."""
    a = np.asarray(a, dtype=float)
    out = a0 * IDENTITY_2.copy()
    for coeff, sigma in zip(a, PAULIS):
        out += coeff * sigma
    return out


def state_from_bloch(b) -> np.ndarray:
    """Qubit state (1/2)(1 + sum_j b_j sigma_j); a projector when |b| = 1."""
    return 0.5 * pauli_combination(1.0, np.asarray(b, dtype=float))


def pauli_decompose(mat: np.ndarray, tol: float = STATE_TOL) -> tuple[float, np.ndarray]:
    """Coefficients (a0, a) with mat = a0*1 + sum_j a_j sigma_j; input must be Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    if hermiticity_residual(mat) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    a0 = 0.5 * np.trace(mat).real
    a = np.array([0.5 * np.trace(mat @ sigma).real for sigma in PAULIS])
    return a0, a


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector b of a qubit operator written as (1/2)(tr[rho] + b.sigma)."""
    _, a = pauli_decompose(rho)
    return 2.0 * a


def hermiticity_residual(mat: np.ndarray) -> float:
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat - dagger(mat)))) if mat.size else 0.0


def eig_hermitian(mat: np.ndarray, tol: float = 1e-8, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix; errors name `what`."""
    mat = np.asarray(mat, dtype=complex)
    if hermiticity_residual(mat) > tol:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    w, v = np.linalg.eigh(mat)
    return w, v


def validate_density_matrix(rho: np.ndarray, tol: float = STATE_TOL, what: str = "density matrix") -> None:
    """Raise ValueError, naming `what`, unless rho is Hermitian, unit-trace, and positive within tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{what} must be square, got shape {rho.shape}")
    res = hermiticity_residual(rho)
    if res > tol:
        raise ValueError(f"{what} not Hermitian (residual {res:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"{what} trace {tr:.12g} != 1")
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if w[0] < -tol:
        raise ValueError(f"{what} has negative eigenvalue {w[0]:.3e}")


def validate_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> None:
    """Raise ValueError unless u'u = 1 within tol (max-abs entry)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    res = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))
    if res > tol:
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")


def is_projector(p: np.ndarray, tol: float = STATE_TOL) -> bool:
    """True when p is a rank-1 projector (Hermitian, p^2 = p, trace 1)."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    if hermiticity_residual(p) > tol:
        return False
    if np.max(np.abs(p @ p - p)) > tol:
        return False
    return abs(np.trace(p).real - 1.0) <= tol


def ket_from_projector(p: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """State vector of a rank-1 projector, with a deterministic global phase.

    The phase is fixed by making the first component of largest magnitude
    real and positive.
    """
    p = np.asarray(p, dtype=complex)
    if not is_projector(p, tol):
        raise ValueError("matrix is not a rank-1 projector within tolerance")
    w, v = np.linalg.eigh(p)
    ket = v[:, -1]
    pivot = int(np.argmax(np.abs(ket)))
    phase = ket[pivot] / abs(ket[pivot])
    return ket / phase
