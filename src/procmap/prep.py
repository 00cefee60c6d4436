"""State preparation for open-system experiments: one operation on a base state.

Every preparation is one outcome of an operation on the system factor of a base
joint state, renormalized by its probability gamma (`prepare_generalized`).  The
stochastic route rotates the pinned state (`apply_pin_map`) by a unitary, so
gamma = 1; preparation by von Neumann measurement projects gamma0; a generalized
measurement applies one outcome's positive trace-reducing map to gamma0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EXIT_ZERO_PROBABILITY, ProcmapError
from .qstate import (
    STATE_TOL,
    UNITARY_TOL,
    conjugate_system,
    dagger,
    is_projector,
    partial_trace_sys,
    tensor,
    validate_unitary,
)

ZERO_PROBABILITY_TOL = 1e-12
FACTORIZATION_TOL = 1e-12


class ZeroProbabilityOutcome(ProcmapError):
    """The requested preparation outcome has (numerically) zero probability."""

    exit_code = EXIT_ZERO_PROBABILITY


class InvalidMeasurement(ProcmapError):
    """A generalized measurement is incomplete, or its Kraus operators do not fit the system."""


@dataclass(frozen=True)
class OutcomeMap:
    """One outcome of a generalized measurement: a positive trace-reducing map.

    Canonical form: rho -> sum_a weights[a] * kraus[a] @ rho @ kraus[a]'.
    """

    weights: tuple[float, ...]
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.kraus):
            raise ValueError("weights and kraus lists must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("outcome-map weights must be nonnegative")


@dataclass(frozen=True)
class GeneralizedMeasurement:
    """A measurement given by a set of positive trace-reducing maps.

    Completeness: sum over outcomes and Kraus terms of w * C'C equals the
    identity, which makes the outcome probabilities sum to one.
    """

    outcomes: tuple[OutcomeMap, ...]

    @property
    def dim(self) -> int:
        return self.outcomes[0].kraus[0].shape[0]

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)

    def completeness_residual(self) -> float:
        n = self.dim
        acc = np.zeros((n, n), dtype=complex)
        for outcome in self.outcomes:
            for w, c in zip(outcome.weights, outcome.kraus):
                acc += w * (dagger(c) @ c)
        return float(np.max(np.abs(acc - np.eye(n))))

    def validate(self, tol: float = STATE_TOL) -> None:
        if not self.outcomes or not all(outcome.kraus for outcome in self.outcomes):
            raise InvalidMeasurement("a measurement needs outcomes, each with a Kraus operator")
        res = self.completeness_residual()
        if not res <= tol:  # a NaN residual fails too
            raise InvalidMeasurement(
                f"measurement maps do not sum to a trace-preserving map (residual {res:.3e})"
            )


@dataclass(frozen=True)
class PreparedState:
    """A post-preparation joint state with its outcome probability."""

    joint: np.ndarray
    gamma: float
    label: str = ""


def apply_pin_map(gamma0: np.ndarray, dim_sys: int, dim_env: int, target: np.ndarray) -> np.ndarray:
    """Pin the system to a fixed pure state, decoupling it from the environment.

    The resulting joint is target (x) tau, where tau is the environment
    marginal of gamma0.
    """
    gamma0 = np.asarray(gamma0, dtype=complex)
    d = dim_sys * dim_env
    if gamma0.shape != (d, d):
        raise ValueError(f"gamma0 has shape {gamma0.shape}, expected ({d}, {d})")
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim_sys, dim_sys):
        raise ValueError("pin target dimension does not match the system")
    w = np.linalg.eigvalsh(target)
    if abs(w[-1] - 1.0) > STATE_TOL or abs(np.sum(w) - 1.0) > STATE_TOL:
        raise ValueError("pin target must be a pure state (largest eigenvalue 1)")
    return tensor(target, partial_trace_sys(gamma0, dim_sys, dim_env))


def prepare_generalized(
    base: np.ndarray, dim_sys: int, dim_env: int, operation: OutcomeMap, label: str = ""
) -> PreparedState:
    """Apply `operation` to the system factor of `base` and renormalize by its probability.

    gamma = Tr[sum_a w_a (C_a x 1) base (C_a x 1)'].  A trace-preserving operation
    (sum_a w_a C_a'C_a = 1 within UNITARY_TOL) gives gamma = 1.0 exactly and no
    division.  Raises InvalidMeasurement when the operators do not fit the system
    and ZeroProbabilityOutcome when the experiment never yields this input.
    """
    d = dim_sys * dim_env
    if not operation.kraus or np.shape(base) != (d, d) or any(c.shape != (dim_sys, dim_sys) for c in operation.kraus):
        raise InvalidMeasurement(f"Kraus operators must be {dim_sys}x{dim_sys} on a {d}x{d} base state")
    # A weight of exactly 1.0 multiplies nothing: (1+0j) * z can flip the sign of a zero.
    terms = [conjugate_system(c, base) if w == 1.0 else w * conjugate_system(c, base)
             for w, c in zip(operation.weights, operation.kraus)]
    acc = sum(terms[1:], terms[0])
    effect = sum(w * (dagger(c) @ c) for w, c in zip(operation.weights, operation.kraus))
    if np.abs(effect - np.eye(dim_sys)).max() <= UNITARY_TOL:
        return PreparedState(joint=acc, gamma=1.0, label=label)
    gamma = float(np.trace(acc).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    joint = acc / gamma
    # A rank-1 projector P leaves P (x) tau; cross-check both forms when P is one to the check's own precision.
    p = operation.kraus[0]
    if len(operation.kraus) == 1 and is_projector(p, tol=FACTORIZATION_TOL):
        if np.max(np.abs(joint - tensor(p, partial_trace_sys(joint, dim_sys, dim_env)))) > FACTORIZATION_TOL:
            raise ValueError("projected joint state does not factorize as P (x) tau")
    return PreparedState(joint=joint, gamma=gamma, label=label)


def perpendicular_ket(ket: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal partner of a qubit state vector."""
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError("perpendicular_ket is defined for qubit kets only")
    return np.array([-np.conj(ket[1]), np.conj(ket[0])])


def rotation_between(from_ket: np.ndarray, to_ket: np.ndarray) -> np.ndarray:
    """Qubit unitary V with V|a> = |b>, built as |b><a| + |b_perp><a_perp|."""
    a = np.asarray(from_ket, dtype=complex)
    b = np.asarray(to_ket, dtype=complex)
    v = np.outer(b, np.conj(a)) + np.outer(perpendicular_ket(b), np.conj(perpendicular_ket(a)))
    validate_unitary(v)
    return v
