"""The unknown process and the output it gives each preparation.

A process is a system+environment unitary U and an initial joint state gamma0 (`ProcessSpec`).
`bilinear_tomo.build_M_from_dynamics` turns (U, gamma0) once into the process tensor M, a plain
(2,)*6 array.  `run_process` reads a preparation's output off M: gamma*Q is M contracted with the
preparation's superoperator S, which equals Tr_env[U J U'] for the joint state J = S applied to the
system factor of gamma0, without forming J; one contraction with a stack of S gives a whole dataset's
outputs (M is the superchannel of Modi, Sci. Rep. 2, 581 (2012)).  Also provides the
exchange-coupling Hamiltonian used by the shipped scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    DIM_SYS,
    PAULIS,
    dagger,
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
    if hermiticity_residual(h) > 1e-10:
        raise ValueError("hamiltonian is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    if not math.isfinite(float(np.max(np.abs(w))) * abs(t)):  # Python floats overflow to inf without a warning
        raise ValueError(f"hamiltonian eigenvalues times t = {t!r} are not finite")
    u = (v * np.exp(-1j * w * t)) @ dagger(v)
    validate_unitary(u)
    return u


def run_process(m: np.ndarray, s: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Output state of the preparation with superoperator s: gamma*Q[r, s] = sum S[(p, q), (x, y)] m[r, s, x, p, y, q].

    A stack s (..., 4, 4) with gammas (...) gives outputs (..., 2, 2).  Raises ValueError unless, for every
    preparation, Tr(S M) is its gamma and gamma*Q is Hermitian, each within 1e-12.
    """
    gq = np.einsum("rsxpyq,...pqxy->...rs", m, np.reshape(s, np.shape(s)[:-2] + (DIM_SYS,) * 4))
    trace = np.trace(gq, axis1=-2, axis2=-1)
    off = np.flatnonzero(np.abs(trace - gamma) > 1e-12)
    if off.size:
        got, want = np.ravel(trace)[off[0]].real, np.ravel(gamma)[off[0]]
        raise ValueError(f"Tr(S M) = {got:.6e} differs from the preparation's gamma {want:.6e}")
    if hermiticity_residual(gq) > 1e-12:
        raise ValueError("process output lost hermiticity")
    # Divide by the trace of gamma*Q itself: dividing by gamma would leave Tr Q off by about 1e-8 at gamma ~ 1e-9.
    out = gq / trace.real[..., None, None]
    return 0.5 * (out + dagger(out))
