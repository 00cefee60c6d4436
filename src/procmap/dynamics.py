"""The process layer: a preparation is its superoperator S, the process is its tensor M.

A process is a system+environment unitary U and an initial joint state gamma0 (`ProcessSpec`).
Every input is prepared by one operation on the system factor of gamma0, held as a plain 4x4 array
S = sum_a w_a C_a (x) conj(C_a), vec(map(rho)) = S vec(rho) rows first; Kraus operators C_a exist only
at the JSON boundary (`superoperator`).  `build_M_from_dynamics` turns (U, gamma0) once into the
process tensor

    M[(r,s), r''r'; s''s'] = sum_{a,b,e} U[(r,e),(r',a)] gamma0[(r'',a),(s'',b)]
                                          conj(U[(s,e),(s',b)])

stored as a plain ndarray m[r, s, r'', r', s'', s'].  Composite indices pack the system index first:
(i, a) -> i * dim_env + a.  The stored tensor is Hermitian in the exact sense
conj(m[r,s,x,p,y,q]) = m[s,r,y,q,x,p], and its full trace sum_{r,p,x} m[r,r,x,p,x,p] is the system
dimension, not 1.  M is the superchannel of Modi, Sci. Rep. 2, 581 (2012), and the one-step process
tensor of Pollock et al., PRA 97, 012127 (2018).

`prepare_generalized` reads the outcome probability gamma off the effect of S, and `run_process` the
output off S and M: gamma*Q is M contracted with S, which equals Tr_env[U J U'] for the joint state
J = S applied to the system factor of gamma0, without forming J, and is <P|M|P> for S = P (x) conj(P).
Both take one S or a stack (..., 4, 4), so one call of each serves a whole dataset.  Stochastic and
rotation-only preparation are trace-preserving, so gamma = 1; von Neumann measurement projects; a
generalized measurement is an (n, 4, 4) stack of S, one per outcome, whose summed effect
`check_completeness` checks.  Also provides the exchange-coupling Hamiltonian and the correlated
pair state of the shipped scenarios.  H's Hermiticity check and read-only eigenbasis, and gamma0's density check,
are each kept for one process, by exact bytes, shape and dtype (`qstate.array_key`); an input that raised is never kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EXIT_ZERO_PROBABILITY, ProcmapError
from .qstate import (DIM_SYS, PAULIS, STATE_TOL, UNITARY_TOL, array_key, dagger, hermiticity_residual, keyed_array,
                     read_only, tensor, validate_density_matrix, validate_unitary)

ZERO_PROBABILITY_TOL = 1e-12
# The largest outcome probability a preparation may have; the allowance above 1 is for rounding only.
MAX_GAMMA = 1.0 + 1e-12


class ZeroProbabilityOutcome(ProcmapError):
    """The requested preparation outcome has (numerically) zero probability."""

    exit_code = EXIT_ZERO_PROBABILITY


class InvalidMeasurement(ProcmapError):
    """A generalized measurement is incomplete, or its operations do not fit the system."""


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
        _checked_state(*array_key(self.gamma0))

    @property
    def dim_env(self) -> int:
        return self.u.shape[0] // DIM_SYS


@functools.lru_cache(maxsize=1)
def _checked_state(*key) -> None:
    validate_density_matrix(keyed_array(*key), what="gamma0")


_HEISENBERG = sum((tensor(sigma, sigma) for sigma in PAULIS), np.zeros((4, 4), complex))  # onto zeros, in Pauli order


def heisenberg_hamiltonian() -> np.ndarray:
    """Two-qubit exchange coupling sum_j sigma_j (x) sigma_j."""
    return _HEISENBERG.copy()


def correlated_pair_state(bloch_a, c23: float) -> np.ndarray:
    """Two-qubit operator (1/4)(1x1 + sum_j a_j sigma_j x 1 + c23 sigma_2 x sigma_3), unchecked.

    `ProcessSpec` checks that it is a state, separable but classically correlated with the environment for c23 != 0.
    """
    bloch_a = np.asarray(bloch_a, dtype=float)
    eye = np.eye(2, dtype=complex)
    gamma = tensor(eye, eye).astype(complex)
    for a_j, sigma in zip(bloch_a, PAULIS):
        gamma += a_j * tensor(sigma, eye)
    gamma += c23 * tensor(PAULIS[1], PAULIS[2])
    return 0.25 * gamma


@functools.lru_cache(maxsize=1)
def _eigenbasis(*key) -> tuple[np.ndarray, np.ndarray]:
    """The read-only eigenvalues and eigenvectors of the h of `key`; ValueError unless h is Hermitian (no NaN)."""
    if not hermiticity_residual(h := keyed_array(*key)) <= 1e-10:
        raise ValueError("hamiltonian is not Hermitian within tolerance")
    return tuple(map(read_only, np.linalg.eigh(h)))


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) computed through the Hermitian eigendecomposition of h; `ProcessSpec` checks that it is unitary."""
    w, v = _eigenbasis(*array_key(h))
    if not math.isfinite(float(np.max(np.abs(w))) * abs(t)):  # Python floats overflow to inf without a warning
        raise ValueError(f"hamiltonian eigenvalues times t = {t!r} are not finite")
    return (v * np.exp(-1j * w * t)) @ dagger(v)


def superoperator(weights, kraus) -> np.ndarray:
    """S = sum_a weights[a] * kraus[a] (x) conj(kraus[a]), the superoperator of rho -> sum_a w_a C_a rho C_a'.

    Raises InvalidMeasurement unless there is one nonnegative weight per Kraus operator, and at least one operator.
    """
    if len(weights) != len(kraus) or not kraus:
        raise InvalidMeasurement("an operation needs one weight per Kraus operator, and at least one operator")
    if any(w < 0 for w in weights):
        raise InvalidMeasurement("Kraus operator weights must be nonnegative")
    # A weight of exactly 1.0 multiplies nothing: (1+0j) * z can flip the sign of a zero.
    terms = [tensor(c, np.conj(c)) for c in kraus]
    terms = [s if w == 1.0 else w * s for w, s in zip(weights, terms)]
    return sum(terms[1:], terms[0])


def _effect_t(s: np.ndarray) -> np.ndarray:
    """E transposed, sum_a w_a C_a^T conj(C_a), for each S of (..., 4, 4): S summed over its equal output indices."""
    return np.trace(np.reshape(s, np.shape(s)[:-2] + (DIM_SYS,) * 4), axis1=-4, axis2=-3)


def check_completeness(superops: np.ndarray) -> float:
    """max |E - 1| for the summed effect E of an (n, 4, 4) stack of outcome superoperators.

    Raises InvalidMeasurement when the stack is empty or the residual is not within STATE_TOL (NaN included).
    """
    if not len(superops):
        raise InvalidMeasurement("a measurement needs outcomes")
    res = float(np.max(np.abs(_effect_t(np.sum(superops, axis=0)) - np.eye(DIM_SYS))))
    if not res <= STATE_TOL:
        raise InvalidMeasurement(f"measurement maps do not sum to a trace-preserving map (residual {res:.3e})")
    return res


def prepare_generalized(gamma0: np.ndarray, s: np.ndarray, label: str | tuple[str, ...] = "") -> float | np.ndarray:
    """The probability gamma = Tr[E Tr_env gamma0] that the operation with superoperator `s` prepares its input.

    One 4x4 S gives a float and `label` names it; a stack (..., 4, 4) gives an array, `label` holding its labels
    in C order.  A trace-preserving operation (no row sum of |E - 1| above UNITARY_TOL / 2) gives gamma = 1.0
    exactly.  Raises InvalidMeasurement when s is not 4x4 superoperators on the qubit system of gamma0 or a gamma
    exceeds MAX_GAMMA, and ZeroProbabilityOutcome when the experiment never yields an input, naming the first
    such label.
    """
    n = len(gamma0)
    if np.shape(s)[-2:] != (DIM_SYS**2,) * 2 or np.shape(gamma0) != (n, n) or n % DIM_SYS:
        raise InvalidMeasurement(
            f"an operation must be a {DIM_SYS**2}x{DIM_SYS**2} superoperator on a square base state of even size"
        )
    batch = np.shape(s)[:-2]
    effect_t = _effect_t(s)
    # |Tr[(E - 1) rho]| is at most the largest row sum of |E - 1|; keeping that within half of
    # UNITARY_TOL keeps gamma = 1.0 inside run_process's 1e-12 check of Tr(S M).
    exact = np.abs(effect_t - np.eye(DIM_SYS)).sum(axis=-1).max(axis=-1) <= UNITARY_TOL / 2
    rho = np.einsum("iaja->ij", np.reshape(gamma0, (DIM_SYS, n // DIM_SYS) * 2))
    gamma = np.where(exact, 1.0, (effect_t * rho).reshape(batch + (-1,)).sum(axis=-1).real)
    bad = np.flatnonzero(~exact & ((gamma < ZERO_PROBABILITY_TOL) | (gamma > MAX_GAMMA)))
    if bad.size:
        first, name = float(gamma.flat[bad[0]]), (label if isinstance(label, str) else label[bad[0]]) or "outcome"
        if first < ZERO_PROBABILITY_TOL:
            raise ZeroProbabilityOutcome(f"preparation {name} has probability {first:.3e}")
        raise InvalidMeasurement(f"preparation {name} has probability {first!r} above 1")
    return float(gamma) if not batch else gamma


def build_M_from_dynamics(spec: ProcessSpec) -> np.ndarray:
    """The process tensor m[r, s, r'', r', s'', s'] of the qubit system, a (2,)*6 array, from (U, gamma0).

    The raw contraction is Hermitian up to rounding; the result is
    symmetrized so the stored hermiticity relation holds bit-exactly.
    """
    shape4 = (DIM_SYS, spec.dim_env) * 2
    u4 = np.asarray(spec.u, dtype=complex).reshape(shape4)
    g4 = np.asarray(spec.gamma0, dtype=complex).reshape(shape4)
    # raw[r,s,x,p,y,q] = sum_{e,a,b} u4[r,e,p,a] g4[x,a,y,b] conj(u4[s,e,q,b]), as two BLAS products
    ug = np.tensordot(u4, g4, axes=([3], [1]))
    raw = np.tensordot(ug, np.conj(u4), axes=([1, 5], [1, 3])).transpose(0, 4, 2, 1, 3, 5)
    return 0.5 * (raw + np.conj(raw).transpose(1, 0, 4, 5, 2, 3))


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
