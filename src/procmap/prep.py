"""State preparation for open-system experiments: an operation is its superoperator S.

Every preparation is one outcome of an operation on the system factor of the initial joint
state gamma0, held as a plain 4x4 array S = sum_a w_a C_a (x) conj(C_a), vec(map(rho)) =
S vec(rho) rows first; Kraus operators C_a exist only at the JSON boundary (`superoperator`).
`prepare_generalized` reads the outcome probability gamma off S, and the process tensor M
turns S into the output (`dynamics.run_process`), so no joint state is formed; both take one S
or a stack (..., 4, 4), and simulation passes a dataset's whole stack (`scenarios.operations`,
where each method's S are tabled).  Stochastic and rotation-only preparation are trace-preserving,
so gamma = 1; von Neumann measurement projects; a generalized measurement is an (n, 4, 4)
stack of S, one per outcome, whose summed effect `check_completeness` checks.
"""

from __future__ import annotations

import numpy as np

from .errors import EXIT_ZERO_PROBABILITY, ProcmapError
from .qstate import DIM_SYS, STATE_TOL, UNITARY_TOL, tensor

ZERO_PROBABILITY_TOL = 1e-12
# The largest outcome probability a preparation may have; the allowance above 1 is for rounding only.
MAX_GAMMA = 1.0 + 1e-12


class ZeroProbabilityOutcome(ProcmapError):
    """The requested preparation outcome has (numerically) zero probability."""

    exit_code = EXIT_ZERO_PROBABILITY


class InvalidMeasurement(ProcmapError):
    """A generalized measurement is incomplete, or its operations do not fit the system."""


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


def check_completeness(superops: np.ndarray) -> float:
    """max |E - 1| for the summed effect E of an (n, 4, 4) stack of outcome superoperators.

    E is read off sum_n S_n as `prepare_generalized` reads one outcome's effect off S.  Raises
    InvalidMeasurement when the stack is empty or the residual is not within STATE_TOL (NaN included).
    """
    if not len(superops):
        raise InvalidMeasurement("a measurement needs outcomes")
    effect_t = np.trace(np.sum(superops, axis=0).reshape((DIM_SYS,) * 4))  # the summed effect, transposed
    res = float(np.max(np.abs(effect_t - np.eye(DIM_SYS))))
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
    # S summed over its equal output indices is E transposed: sum_a w_a C_a^T conj(C_a).
    effect_t = np.trace(np.reshape(s, batch + (DIM_SYS,) * 4), axis1=-4, axis2=-3)
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
