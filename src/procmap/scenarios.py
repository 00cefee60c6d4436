"""Scenario configs, experiment simulation, and the shipped demo scenarios.

A scenario bundles the process (unitary + initial joint state), a preparation
method, and a protocol (which input labels to prepare).  `operation_of_label`
is the one table of preparations, each one operation on the system factor of
gamma0 for `prep.prepare_generalized`: stochastic, the pin-then-rotate
replacement {|t><0|, |t><1|} onto the label's state |t>; rotation-only, V;
measurement, P; generalized, the label's outcome map; the mixed record, X.
Simulation walks the protocol labels, then `mixed`, prepares each input, runs
the process and collects (input, output, gamma) records.  An optional
finite-shot mode degrades the exact probabilities and outputs to multinomial
estimates from a seeded generator.

The dataset holds the sha256 of the scenario file's bytes (`metadata.scenario_sha256`),
not the file, so reproducing a dataset needs its scenario file too; nothing reads
the digest.  Shot-count and seed overrides live in the `shots` and `seed` metadata.
A measurement-prepared dataset also carries `oracle`, the exact element table of
the true process, computed here from the `ProcessSpec` already in hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .bilinear_tomo import build_M_from_dynamics, element_table_from_map
from .dynamics import (
    ProcessSpec,
    correlated_pair_state,
    heisenberg_hamiltonian,
    run_process,
    unitary_from_hamiltonian,
)
from .errors import ProcmapError
from .prep import GeneralizedMeasurement, OutcomeMap, prepare_generalized, rotation_between
from .qstate import DIM_SYS, SIGMA_1, SIGMA_3, bloch_vector, ket_from_projector, state_from_bloch, tensor
from .records import DIRECTIONS, MIXED_LABEL, PROTOCOL_LABELS, Dataset, TomographyRecord, state_of_label

# Three retired names stay bound here, uncalled, so that perfbench/tracer.py can wrap them.
apply_pin_map = prepare_stochastic = prepare_projective = prepare_generalized

# The `preparation` keys each method reads; parse_scenario rejects any other.
PREPARATION_KEYS = {
    "stochastic": {"method"},
    "measurement": {"method"},
    "rotation_only": {"method"},
    "generalized": {"method", "measurement", "labels"},
}

# |0><0|: the state that rotation-only preparation assumes it starts from.
ZERO_STATE = np.array([[1, 0], [0, 0]], dtype=complex)
ZERO_KET = ket_from_projector(ZERO_STATE)


class ScenarioError(ProcmapError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: ProcessSpec
    t: float
    protocol: str
    prep_method: str
    measurement: GeneralizedMeasurement | None = None
    generalized_labels: tuple[str, ...] = ()
    mixed_bloch: np.ndarray | None = None
    shots: int | None = None
    seed: int | None = None


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _integer(obj: dict, key: str, default: int | None) -> int | None:
    """obj[key] when it is a JSON integer (not a bool), else `default` when absent."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not int:
        raise ScenarioError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """`value` as a float when it is a finite JSON number (not a bool); errors name `what`."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{what} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {value}")
    return number


def _number(obj: dict, key: str, default: float) -> float:
    """obj[key] when it is a finite JSON number (not a bool), else `default` when absent."""
    return _finite(obj.get(key, default), key)


def _bloch(value, what: str) -> np.ndarray:
    """A list of exactly three finite JSON numbers, as a float vector; errors name `what`."""
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{what} must be a list of three JSON numbers, got {value!r}")
    return np.array([_finite(x, f"{what}[{i}]") for i, x in enumerate(value)])


def parse_measurement(obj: dict) -> GeneralizedMeasurement:
    """A generalized measurement from its JSON; every weight must be a finite JSON number."""
    outcomes = []
    for i, entry in enumerate(obj["outcomes"]):
        weights = tuple(_finite(w, f"measurement outcome {i} weight") for w in entry["weights"])
        kraus = tuple(jsonio.matrix_from_json(c) for c in entry["kraus"])
        outcomes.append(OutcomeMap(weights=weights, kraus=kraus))
    return GeneralizedMeasurement(outcomes=tuple(outcomes))


def parse_scenario(obj: dict, name: str = "scenario") -> Scenario:
    """Validate and expand a scenario JSON object; raises ScenarioError."""
    _require_object(obj, "a scenario")
    try:
        dim_sys = _integer(obj, "dimA", 2)
        dim_env = _integer(obj, "dimB", 2)
        if dim_sys != DIM_SYS:
            raise ScenarioError(f"dimA must be {DIM_SYS}, got {dim_sys}: every protocol is qubit-only")
        if dim_env <= 0:
            raise ScenarioError("dimB must be positive")

        ham_obj = obj["hamiltonian"]
        if ham_obj == "heisenberg":
            if dim_env != 2:
                raise ScenarioError('the "heisenberg" keyword requires dimA = dimB = 2')
            hamiltonian = heisenberg_hamiltonian()
        else:
            hamiltonian = jsonio.matrix_from_json(ham_obj)
            joint = (DIM_SYS * dim_env,) * 2
            if hamiltonian.shape != joint:
                raise ScenarioError(f"hamiltonian has shape {hamiltonian.shape}, expected {joint}")
        t = _number(obj, "t", 0.0)

        g_obj = obj["gamma0"]
        if isinstance(g_obj, dict) and "bloch_a" in g_obj:
            bloch_a = _bloch(g_obj["bloch_a"], "gamma0.bloch_a")
            gamma0 = correlated_pair_state(bloch_a, _number(g_obj, "c23", 0.0), what="gamma0")
        else:
            gamma0 = jsonio.matrix_from_json(g_obj)
        u = unitary_from_hamiltonian(hamiltonian, t)
        spec = ProcessSpec(u=u, gamma0=gamma0)

        protocol = str(obj.get("protocol", "verify12"))
        if protocol not in PROTOCOL_LABELS:
            raise ScenarioError(f"unknown protocol {protocol!r}; expected one of {sorted(PROTOCOL_LABELS)}")

        prep_obj = _require_object(obj.get("preparation", {"method": "stochastic"}), "preparation")
        method = str(prep_obj.get("method", "stochastic"))
        if method not in PREPARATION_KEYS:
            raise ScenarioError(f"unknown preparation method {method!r}")
        unread = sorted(set(prep_obj) - PREPARATION_KEYS[method])
        if unread:
            raise ScenarioError(f"preparation key {unread[0]!r} is not read by method {method!r}")

        measurement = None
        generalized_labels: tuple[str, ...] = ()
        if method == "generalized":
            measurement = parse_measurement(prep_obj["measurement"])
            if any(c.shape != (DIM_SYS, DIM_SYS) for outcome in measurement.outcomes for c in outcome.kraus):
                raise ScenarioError(f"measurement Kraus operators must be {DIM_SYS}x{DIM_SYS} (dimA)")
            measurement.validate()
            generalized_labels = tuple(str(x) for x in prep_obj["labels"])
            expected = PROTOCOL_LABELS[protocol]
            if sorted(generalized_labels) != sorted(expected):
                raise ScenarioError(
                    f"generalized preparation labels must cover the {protocol} labels"
                )
            if len(generalized_labels) != measurement.num_outcomes:
                raise ScenarioError("one label per measurement outcome is required")

        mixed_bloch = None
        if "mixed_bloch" in obj:
            mixed_bloch = _bloch(obj["mixed_bloch"], "mixed_bloch")
            if math.hypot(*mixed_bloch) >= 1.0:  # np.dot would overflow, with a warning, on 1e300
                raise ScenarioError("mixed_bloch must have norm strictly below 1")
            if method != "measurement":
                raise ScenarioError("mixed_bloch requires the measurement preparation method")

        shots = _integer(obj, "shots", None)
        if shots is not None and shots <= 0:
            raise ScenarioError("shots must be positive")
        seed = _integer(obj, "seed", None)
        if seed is not None and seed < 0:
            raise ScenarioError("seed must be non-negative")

        return Scenario(
            name=name,
            spec=spec,
            t=t,
            protocol=protocol,
            prep_method=method,
            measurement=measurement,
            generalized_labels=generalized_labels,
            mixed_bloch=mixed_bloch,
            shots=shots,
            seed=seed,
        )
    except ProcmapError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def operation_of_label(sc: Scenario, label: str) -> OutcomeMap:
    """The operation on the system factor of gamma0 that prepares `label`.

    Stochastic preparation pins the system to |0> and rotates it to the label's
    state |t>; together they replace the system's state by |t>, the trace-preserving
    operation {|t><0|, |t><1|}.  The mixed record applies X itself:
    X = state_from_bloch(b) has eigenvalues (1 +- |b|)/2 and |b| < 1, so 0 <= X <= 1.
    """
    if sc.prep_method == "generalized":
        return sc.measurement.outcomes[sc.generalized_labels.index(label)]
    if label == MIXED_LABEL:
        return OutcomeMap(weights=(1.0,), kraus=(state_from_bloch(sc.mixed_bloch),))
    target = state_of_label(label)
    if sc.prep_method == "measurement":
        return OutcomeMap(weights=(1.0,), kraus=(target,))
    ket = ket_from_projector(target)
    if sc.prep_method == "stochastic":
        return OutcomeMap(weights=(1.0,) * DIM_SYS, kraus=tuple(np.outer(ket, e) for e in np.eye(DIM_SYS)))
    # Rotation-only (imperfect-pin) preparation rotates gamma0 itself, so the
    # true input is not the assumed projector.
    return OutcomeMap(weights=(1.0,), kraus=(rotation_between(ZERO_KET, ket),))


def _degrade_record(rng: np.random.Generator, rec: TomographyRecord, shots: int, gamma: float) -> TomographyRecord:
    """Replace the exact output with Pauli-axis multinomial estimates at `shots` shots."""
    b = bloch_vector(rec.output)
    est = np.zeros(3)
    for axis in range(3):
        p_up = min(max(0.5 * (1.0 + b[axis]), 0.0), 1.0)
        ups = rng.binomial(shots, p_up)
        est[axis] = 2.0 * ups / shots - 1.0
    return TomographyRecord(label=rec.label, input=rec.input, output=state_from_bloch(est), gamma=gamma)


def _degraded_gammas(rng: np.random.Generator, sc: Scenario, exact: dict[str, float], shots: int) -> dict[str, float]:
    """Multinomial estimates of the outcome probabilities: per direction, or over all outcomes."""
    est = dict(exact)
    if sc.prep_method == "generalized":
        counts = rng.multinomial(shots, [exact[label] for label in sc.generalized_labels])
        est.update(zip(sc.generalized_labels, (counts / shots).tolist()))
    elif sc.prep_method == "measurement":
        for d in DIRECTIONS:
            plus, minus = f"{d}+", f"{d}-"
            if plus in exact:
                ups = rng.binomial(shots, min(max(exact[plus], 0.0), 1.0))
                est[plus] = ups / shots
                if minus in exact:
                    est[minus] = 1.0 - ups / shots
    return est


def simulate_scenario(sc: Scenario, scenario_sha256: str = "") -> Dataset:
    """Run the pipeline for every protocol label; `scenario_sha256` is the scenario file's digest."""
    spec = sc.spec
    labels = PROTOCOL_LABELS[sc.protocol] + ((MIXED_LABEL,) if sc.mixed_bloch is not None else ())
    records = []
    for label in labels:
        prep_state = prepare_generalized(spec.gamma0, operation_of_label(sc, label), label=label)
        assumed = state_from_bloch(sc.mixed_bloch) if label == MIXED_LABEL else state_of_label(label)
        q = run_process(spec, prep_state)
        records.append(TomographyRecord(label=label, input=assumed, output=q, gamma=prep_state.gamma))

    if sc.shots is not None:
        rng = np.random.default_rng(sc.seed if sc.seed is not None else 0)
        gammas = _degraded_gammas(rng, sc, {r.label: r.gamma for r in records}, sc.shots)
        records = [_degrade_record(rng, rec, sc.shots, gammas[rec.label]) for rec in records]

    metadata = {
        "scenario": sc.name,
        "protocol": sc.protocol,
        "preparation": sc.prep_method,
        "t": repr(sc.t),
        "shots": "exact" if sc.shots is None else str(sc.shots),
        "seed": "" if sc.seed is None else str(sc.seed),
        "scenario_sha256": scenario_sha256,
    }
    oracle = None
    if sc.prep_method == "measurement":  # the only preparation the bi-linear map describes
        oracle = element_table_from_map(build_M_from_dynamics(spec)).elements
    return Dataset(records=tuple(records), metadata=metadata, oracle=oracle)


# ---------------------------------------------------------------------------
# Shipped demo scenarios
# ---------------------------------------------------------------------------

# Imperfect-pin demo constants.  The pin leaves a 70% population in the pure
# target; the remainder chi is a correlated (but separable) repository
# constant, and the coupling/time are chosen so the assumed-linear fit is
# clearly non-positive.
IMPERFECT_PIN_PURE_WEIGHT = 0.7
IMPERFECT_PIN_CHI_C23 = 0.9
IMPERFECT_PIN_T = 0.8


def _imperfect_pin_gamma0() -> np.ndarray:
    tau = 0.5 * np.eye(2, dtype=complex)
    chi = correlated_pair_state([0.0, 0.0, 0.0], IMPERFECT_PIN_CHI_C23)
    return IMPERFECT_PIN_PURE_WEIGHT * tensor(ZERO_STATE, tau) + (1 - IMPERFECT_PIN_PURE_WEIGHT) * chi


DEMO_NAMES = ("stochastic-heisenberg", "measurement-correlated", "imperfect-pin")


def demo_scenario_config(name: str) -> dict:
    """Scenario JSON for a shipped demo; raises ScenarioError on unknown names."""
    t_demo = math.pi / 8.0
    if name == "stochastic-heisenberg":
        return {
            "dimA": 2,
            "dimB": 2,
            "hamiltonian": "heisenberg",
            "t": t_demo,
            "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": 0.3},
            "preparation": {"method": "stochastic"},
            "protocol": "verify12",
        }
    if name == "measurement-correlated":
        return {
            "dimA": 2,
            "dimB": 2,
            "hamiltonian": "heisenberg",
            "t": t_demo,
            "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": 0.3},
            "preparation": {"method": "measurement"},
            "protocol": "verify12",
            "mixed_bloch": [0.5, 0.0, 0.0],
        }
    if name == "imperfect-pin":
        return {
            "dimA": 2,
            "dimB": 2,
            "hamiltonian": jsonio.matrix_to_json(tensor(SIGMA_1, SIGMA_3)),
            "t": IMPERFECT_PIN_T,
            "gamma0": jsonio.matrix_to_json(_imperfect_pin_gamma0()),
            "preparation": {"method": "rotation_only"},
            "protocol": "verify12",
        }
    raise ScenarioError(f"unknown demo {name!r}; expected one of {', '.join(DEMO_NAMES)}")
