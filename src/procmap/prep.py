"""State preparation for open-system experiments: one operation on gamma0.

Every preparation is one outcome of an operation on the system factor of the
initial joint state gamma0 (`prepare_generalized`).  It is recorded as the
operation's superoperator S = sum_a w_a C_a (x) conj(C_a) and its probability
gamma; the process tensor M turns S into the output (`dynamics.run_process`),
so no joint state is formed.  Stochastic preparation, a pin then a rotation
to |t>, is the replacement {|t><0|, |t><1|}, so gamma = 1; rotation-only
preparation applies V = [[t0, -conj(t1)], [t1, conj(t0)]], so V|0> = |t> = (t0, t1),
read off the ket table in `records` in its gauge (the first component of largest
magnitude real and positive), which fixes V; von Neumann measurement projects; a
generalized measurement applies one outcome's positive trace-reducing map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EXIT_ZERO_PROBABILITY, ProcmapError
from .qstate import DIM_SYS, STATE_TOL, UNITARY_TOL, dagger, tensor

ZERO_PROBABILITY_TOL = 1e-12
# The largest outcome probability a preparation may have; the allowance above 1 is for rounding only.
MAX_GAMMA = 1.0 + 1e-12


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

    def superoperator(self) -> np.ndarray:
        """sum_a weights[a] * kraus[a] (x) conj(kraus[a]), the 4x4 S with vec(map(rho)) = S vec(rho), rows first."""
        # A weight of exactly 1.0 multiplies nothing: (1+0j) * z can flip the sign of a zero.
        terms = [tensor(c, np.conj(c)) for c in self.kraus]
        terms = [s if w == 1.0 else w * s for w, s in zip(self.weights, terms)]
        return sum(terms[1:], terms[0])


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
    """A preparation: its operation's 4x4 superoperator S on the system, and its outcome probability."""

    superop: np.ndarray
    gamma: float


def prepare_generalized(gamma0: np.ndarray, operation: OutcomeMap, label: str = "") -> PreparedState:
    """The superoperator of `operation` on the system factor of `gamma0`, and its probability.

    gamma = Tr[E Tr_env gamma0], E = sum_a w_a C_a'C_a the operation's effect.  A
    trace-preserving operation (no row sum of |E - 1| above UNITARY_TOL / 2) gives
    gamma = 1.0 exactly.
    Raises InvalidMeasurement when the operators do not fit the qubit system of
    gamma0 or when gamma exceeds MAX_GAMMA (naming `label`), and
    ZeroProbabilityOutcome (naming `label`) when the experiment never yields this input.
    """
    n = len(gamma0)
    if not operation.kraus or np.shape(gamma0) != (n, n) or n % DIM_SYS or any(
        c.shape != (DIM_SYS, DIM_SYS) for c in operation.kraus
    ):
        raise InvalidMeasurement(f"Kraus operators must be {DIM_SYS}x{DIM_SYS} on a square base state of even size")
    s = operation.superoperator()
    # S summed over its equal output indices is E transposed: sum_a w_a C_a^T conj(C_a).
    effect_t = np.trace(s.reshape((DIM_SYS,) * 4))
    # |Tr[(E - 1) rho]| is at most the largest row sum of |E - 1|; keeping that within half of
    # UNITARY_TOL keeps gamma = 1.0 inside run_process's 1e-12 check of Tr(S M).
    if np.abs(effect_t - np.eye(DIM_SYS)).sum(axis=1).max() <= UNITARY_TOL / 2:
        return PreparedState(superop=s, gamma=1.0)
    rho = np.einsum("iaja->ij", np.reshape(gamma0, (DIM_SYS, n // DIM_SYS) * 2))
    gamma = float(np.sum(effect_t * rho).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    if gamma > MAX_GAMMA:
        raise InvalidMeasurement(f"preparation {label or 'outcome'} has probability {gamma!r} above 1")
    return PreparedState(superop=s, gamma=gamma)

