"""State preparation for open-system experiments: one operation on gamma0.

Every preparation is one outcome of an operation on the system factor of the
initial joint state gamma0, renormalized by its probability gamma
(`prepare_generalized`).  Stochastic preparation, a pin then a rotation to |t>,
is the replacement {|t><0|, |t><1|}, so gamma = 1; rotation-only preparation
applies a unitary; von Neumann measurement projects; a generalized measurement
applies one outcome's positive trace-reducing map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EXIT_ZERO_PROBABILITY, ProcmapError
from .qstate import (
    DIM_SYS,
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

    def effect(self) -> np.ndarray:
        """sum_a weights[a] * kraus[a]' @ kraus[a], the operator whose expectation is the outcome's probability."""
        return sum(w * (dagger(c) @ c) for w, c in zip(self.weights, self.kraus))


@dataclass(frozen=True)
class GeneralizedMeasurement:
    """A measurement given by a set of positive trace-reducing maps.

    Completeness: sum over outcomes and Kraus terms of w * C'C equals the
    identity, which makes the outcome probabilities sum to one.
    """

    outcomes: tuple[OutcomeMap, ...]

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)

    def completeness_residual(self) -> float:
        total = sum(outcome.effect() for outcome in self.outcomes)
        return float(np.max(np.abs(total - np.eye(len(total)))))

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


def prepare_generalized(gamma0: np.ndarray, operation: OutcomeMap, label: str = "") -> PreparedState:
    """Apply `operation` to the system factor of `gamma0` and renormalize by its probability.

    gamma = Tr[sum_a w_a (C_a x 1) gamma0 (C_a x 1)'].  A trace-preserving operation
    (sum_a w_a C_a'C_a = 1 within UNITARY_TOL) gives gamma = 1.0 exactly and no
    division.  Raises InvalidMeasurement when the operators do not fit the qubit
    system of gamma0, and ZeroProbabilityOutcome (naming `label`) when the
    experiment never yields this input.
    """
    n = len(gamma0)
    if not operation.kraus or np.shape(gamma0) != (n, n) or n % DIM_SYS or any(
        c.shape != (DIM_SYS, DIM_SYS) for c in operation.kraus
    ):
        raise InvalidMeasurement(f"Kraus operators must be {DIM_SYS}x{DIM_SYS} on a square base state of even size")
    # A weight of exactly 1.0 multiplies nothing: (1+0j) * z can flip the sign of a zero.
    terms = [conjugate_system(c, gamma0) if w == 1.0 else w * conjugate_system(c, gamma0)
             for w, c in zip(operation.weights, operation.kraus)]
    acc = sum(terms[1:], terms[0])
    if np.abs(operation.effect() - np.eye(DIM_SYS)).max() <= UNITARY_TOL:
        return PreparedState(joint=acc, gamma=1.0)
    gamma = float(np.trace(acc).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    # A rank-1 projector P leaves P (x) tau; cross-check both forms when P is one to the check's
    # own precision.  The check runs before the division by gamma, whose rounding grows like 1/gamma.
    p = operation.kraus[0]
    if len(operation.kraus) == 1 and is_projector(p, tol=FACTORIZATION_TOL):
        if np.max(np.abs(acc - tensor(p, partial_trace_sys(acc)))) > FACTORIZATION_TOL:
            raise ValueError("projected joint state does not factorize as P (x) tau")
    return PreparedState(joint=acc / gamma, gamma=gamma)


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
