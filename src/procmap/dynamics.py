"""Joint unitary evolution of prepared states and extraction of system outputs.

The pipeline is: prepare the joint state, conjugate by the system+environment
unitary, trace out the environment.  Also provides the exchange-coupling
Hamiltonian used by the shipped scenarios and the fixed-environment dynamical
map rho -> Tr_env[U (rho x tau) U'].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_tomo import LinearProcessMap
from .prep import PreparedState
from .qstate import (
    DIM_SYS,
    PAULIS,
    dagger,
    eig_hermitian,
    hermiticity_residual,
    tensor,
    validate_density_matrix,
    validate_unitary,
)


@dataclass(frozen=True)
class ProcessSpec:
    """An unknown process: joint unitary u on (qubit) system x environment, initial state gamma0.

    The environment's size is read off u.  Construction raises ValueError unless
    u is unitary on a space whose size is a multiple of DIM_SYS, and gamma0 is a
    density matrix of the same size.
    """

    u: np.ndarray
    gamma0: np.ndarray

    def __post_init__(self):
        if self.u.shape[0] % DIM_SYS:
            raise ValueError(f"unitary has shape {self.u.shape}, not a multiple of the system dimension {DIM_SYS}")
        if self.gamma0.shape != self.u.shape:
            raise ValueError(f"gamma0 has shape {self.gamma0.shape}, expected {self.u.shape}")
        validate_unitary(self.u)
        validate_density_matrix(self.gamma0, what="gamma0")

    @property
    def dim_env(self) -> int:
        return self.u.shape[0] // DIM_SYS


def heisenberg_hamiltonian() -> np.ndarray:
    """Two-qubit exchange coupling sum_j sigma_j (x) sigma_j."""
    h = np.zeros((4, 4), dtype=complex)
    for sigma in PAULIS:
        h += tensor(sigma, sigma)
    return h


def correlated_pair_state(bloch_a, c23: float, what: str = "density matrix") -> np.ndarray:
    """Two-qubit state (1/4)(1x1 + sum_j a_j sigma_j x 1 + c23 sigma_2 x sigma_3).

    Separable but classically correlated with the environment for c23 != 0.
    Raises ValueError, naming `what`, if the coefficients do not give a valid state.
    """
    bloch_a = np.asarray(bloch_a, dtype=float)
    eye = np.eye(2, dtype=complex)
    gamma = tensor(eye, eye).astype(complex)
    for a_j, sigma in zip(bloch_a, PAULIS):
        gamma += a_j * tensor(sigma, eye)
    gamma += c23 * tensor(PAULIS[1], PAULIS[2])
    gamma = 0.25 * gamma
    validate_density_matrix(gamma, what=what)
    return gamma


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) computed through the Hermitian eigendecomposition of h."""
    w, v = eig_hermitian(h, tol=1e-10, what="hamiltonian")
    u = (v * np.exp(-1j * w * t)) @ dagger(v)
    validate_unitary(u, tol=1e-12)
    return u


def run_process(spec: ProcessSpec, prepared: PreparedState) -> np.ndarray:
    """Output state: evolve the prepared joint under spec.u and trace out the environment."""
    joint = np.asarray(prepared.joint, dtype=complex)
    if joint.shape != spec.u.shape:
        raise ValueError(f"prepared joint has shape {joint.shape}, expected {spec.u.shape}")
    # Tr_env[U J U'][i, j] = sum over (env a, column m) of (U J)[(i, a), m] conj(U[(j, a), m]):
    # one product U J and one contraction, never forming U J U'.
    out = (spec.u @ joint).reshape(DIM_SYS, -1) @ dagger(spec.u.reshape(DIM_SYS, -1))
    # The joint was divided by gamma, so its rounding, and the output's, grows like 1/gamma.
    if hermiticity_residual(out) * prepared.gamma > 1e-12:
        raise ValueError("process output lost hermiticity")
    return 0.5 * (out + dagger(out))


def dynamical_map_fixed_env(u: np.ndarray, tau: np.ndarray) -> LinearProcessMap:
    """Linear map rho -> Tr_env[U (rho x tau) U'] in process-map storage.

    lam4[r,r',s,s'] = sum_{e,a,b} U[(r,e),(r',a)] tau[a,b] conj(U[(s,e),(s',b)]),
    the output for the matrix unit |r'><s'|.
    """
    u = np.asarray(u, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    dim_env = tau.shape[0]
    if u.shape[0] != DIM_SYS * dim_env:
        raise ValueError(f"unitary dimension is not {DIM_SYS} times the environment dimension")
    u4 = u.reshape(DIM_SYS, dim_env, DIM_SYS, dim_env)
    ut = np.tensordot(u4, tau, axes=([3], [0]))
    lam4 = np.tensordot(ut, np.conj(u4), axes=([1, 3], [1, 3]))
    return LinearProcessMap(mat=lam4.reshape(DIM_SYS * DIM_SYS, DIM_SYS * DIM_SYS))
