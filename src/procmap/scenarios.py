"""Scenario configs, experiment simulation, and the shipped demo scenarios.

A scenario bundles the process (unitary + initial joint state), a preparation method, and a protocol (which input
labels to prepare).  `parse_scenario` builds its record table once: `labels` (the protocol's, then `mixed`),
`operations` (the (n, 4, 4) stack of the S that prepares each label on the system factor of gamma0) and `inputs`
(the state each label names).  It refuses a key it does not read in the scenario, a Bloch-form gamma0, a matrix
object, the preparation, a generalized measurement or one of its outcomes; the scenario's `note` is a free-form
comment.  A dataset stays lenient: `records.Dataset.from_json` ignores a key it does not read, in a record too.
Simulation is one array program over the table, with the process layer of `dynamics`: it builds the process tensor M
once, reads every gamma off the stack in one `prepare_generalized` call and every output off the stack and M in one
`run_process` call; these arrays are the stacks of one `Dataset`, checked (`Dataset.checked`) as a read of its file
is: a dataset no read accepts is a ScenarioError.  An optional finite-shot mode (`_degrade`) draws, from one seeded
generator, each preparing measurement's outcome counts as one multinomial, then each output's Pauli axes.
Each protocol's input stack is a table per label tuple.  A Bloch-form gamma0, per (bloch_a, c23), and the gammas, by
the exact bytes of gamma0 and of `operations` and the labels, are kept read-only for one process, never on a raise.

The dataset holds the sha256 of the scenario file's bytes (`metadata.scenario_sha256`),
not the file, so reproducing a dataset needs its scenario file too; nothing reads
the digest.  Shot-count and seed overrides live in the `shots` and `seed` metadata.
A measurement-prepared dataset also carries `oracle`, the exact element table of
the true process, read off the same M as the records, so comparing a fit with it
checks the bi-linear inversion only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .bilinear_tomo import element_table_from_map
from .dynamics import (ProcessSpec, build_M_from_dynamics, check_completeness, correlated_pair_state,
                       heisenberg_hamiltonian, prepare_generalized, run_process, superoperator, unitary_from_hamiltonian)
from .errors import ProcmapError, shown
from .qstate import DIM_SYS, SIGMA_1, SIGMA_3, array_key, bloch_vector, keyed_array, read_only, state_from_bloch, tensor
from .records import MIXED_LABEL, PROTOCOL_LABELS, TWELVE_STATE_LABELS, Dataset, ket_of_label, state_of_label

# Three retired names stay bound here, uncalled, so that perfbench/tracer.py can wrap them.
apply_pin_map = prepare_stochastic = prepare_projective = prepare_generalized

# The keys parse_scenario reads in a scenario, whose `note` is a free-form comment, in each method's preparation
# and in a matrix object.
SCENARIO_KEYS = {"dimA", "dimB", "hamiltonian", "t", "gamma0", "protocol", "preparation", "mixed_bloch", "shots",
                 "seed", "note"}
PREPARATION_KEYS = {"stochastic": {"method"}, "measurement": {"method"}, "rotation_only": {"method"},
                    "generalized": {"method", "measurement", "labels"}}
MATRIX_KEYS = {"rows", "cols", "data"}


class ScenarioError(ProcmapError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: ProcessSpec
    t: float
    protocol: str
    prep_method: str
    labels: tuple[str, ...]  # the protocol's labels, then MIXED_LABEL when the scenario names mixed_bloch
    operations: np.ndarray  # (n, 4, 4): the S that prepares each label from the system factor of gamma0
    inputs: np.ndarray  # (n, 2, 2): the state each label names
    shots: int | None = None
    seed: int | None = None


def _require(value, what: str, kind: str = "object"):
    """`value` when it is a JSON `kind` ("object" or "string"); errors name `what` and its type, not the value."""
    if not isinstance(value, {"object": dict, "string": str}[kind]):
        raise ScenarioError(f"{what} must be a JSON {kind}, got {type(value).__name__}")
    return value


def _read_keys(obj, what: str, keys) -> dict:
    """`obj` when it is a JSON object whose every key is in `keys`; errors name `what` and its first other key."""
    unread = [key for key in _require(obj, what) if key not in keys]
    if unread:
        raise ScenarioError(f"{what} key {shown(unread[0])} is not read")
    return obj


def _integer(obj: dict, key: str, default: int | None) -> int | None:
    """obj[key] when it is a JSON integer (not a bool), else `default` when absent."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not int:
        raise ScenarioError(f"{key} must be a JSON integer, got {shown(value)}")
    return value


def _finite(value, what: str) -> float:
    """`value` as a float when it is a finite JSON number (not a bool); errors name `what`."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{what} must be a JSON number, got {shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {shown(value)}")
    return number


def _bloch(value, what: str) -> tuple[float, float, float]:
    """A list of exactly three finite JSON numbers, as floats; errors name `what`."""
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{what} must be a list of three JSON numbers, got {shown(value)}")
    return tuple(_finite(x, f"{what}[{i}]") for i, x in enumerate(value))


def _matrix(obj, what: str) -> np.ndarray:
    """The matrix object `obj` decoded by `jsonio.matrix_from_json`; a ValueError it raises names `what` first."""
    try:
        return jsonio.matrix_from_json(_read_keys(obj, what, MATRIX_KEYS))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def parse_measurement(obj: dict) -> np.ndarray:
    """A complete measurement from its JSON (finite weights, 2x2 Kraus operators) as the (n, 4, 4) stack of its S."""
    superops = []
    with np.errstate(over="ignore", invalid="ignore"):  # an S that overflows fails the completeness check
        for i, entry in enumerate(_read_keys(obj, "preparation.measurement", {"outcomes"})["outcomes"]):
            _read_keys(entry, f"measurement outcome {i}", {"weights", "kraus"})
            weights = [_finite(w, f"measurement outcome {i} weight") for w in entry["weights"]]
            kraus = [_matrix(c, f"measurement outcome {i} kraus[{j}]") for j, c in enumerate(entry["kraus"])]
            if any(c.shape != (DIM_SYS, DIM_SYS) for c in kraus):
                raise ScenarioError(f"measurement Kraus operators must be {DIM_SYS}x{DIM_SYS} (dimA)")
            superops.append(superoperator(weights, kraus))
        stack = np.array(superops)
        check_completeness(stack)
    return stack


def parse_scenario(obj: dict, name: str = "scenario") -> Scenario:
    """Validate and expand a scenario JSON object; raises ScenarioError."""
    _read_keys(obj, "scenario", SCENARIO_KEYS)
    try:
        dim_sys = _integer(obj, "dimA", 2)
        dim_env = _integer(obj, "dimB", 2)
        if dim_sys != DIM_SYS:
            raise ScenarioError(f"dimA must be {DIM_SYS}, got {shown(dim_sys)}: every protocol is qubit-only")
        if dim_env <= 0:
            raise ScenarioError("dimB must be positive")

        ham_obj = obj["hamiltonian"]
        if ham_obj == "heisenberg":
            if dim_env != 2:
                raise ScenarioError('the "heisenberg" keyword requires dimA = dimB = 2')
            hamiltonian = heisenberg_hamiltonian()
        else:
            hamiltonian = _matrix(ham_obj, "hamiltonian")
            joint = (DIM_SYS * dim_env,) * 2
            if hamiltonian.shape != joint:
                raise ScenarioError(f"hamiltonian has shape {hamiltonian.shape}, expected {joint}")
        t = _finite(obj.get("t", 0.0), "t")

        g_obj = obj["gamma0"]
        if isinstance(g_obj, dict) and "bloch_a" in g_obj:
            _read_keys(g_obj, "gamma0", {"bloch_a", "c23"})
            bloch_a, c23 = _bloch(g_obj["bloch_a"], "gamma0.bloch_a"), _finite(g_obj.get("c23", 0.0), "c23")
            # Expectations in gamma0, so at most 1; refused before correlated_pair_state can overflow with a warning.
            for key, size in (("bloch_a", math.hypot(*bloch_a)), ("c23", abs(c23))):
                if size > 1.0:
                    raise ScenarioError(f"gamma0.{key} has size {size:.6g} above 1: gamma0 has a negative eigenvalue")
            gamma0 = _bloch_state(bloch_a, c23)
        else:
            gamma0 = _matrix(g_obj, "gamma0")
        u = unitary_from_hamiltonian(hamiltonian, t)
        spec = ProcessSpec(u=u, gamma0=gamma0)

        protocol = _require(obj.get("protocol", "verify12"), "protocol", "string")
        if protocol not in PROTOCOL_LABELS:
            raise ScenarioError(f"unknown protocol {shown(protocol)}; expected one of {sorted(PROTOCOL_LABELS)}")

        prep_obj = _require(obj.get("preparation", {"method": "stochastic"}), "preparation")
        method = _require(prep_obj.get("method", "stochastic"), "preparation.method", "string")
        if method not in PREPARATION_KEYS:
            raise ScenarioError(f"unknown preparation method {shown(method)}")
        _read_keys(prep_obj, f"{method} preparation", PREPARATION_KEYS[method])

        labels = PROTOCOL_LABELS[protocol]
        if method == "generalized":
            table = parse_measurement(prep_obj["measurement"])
            order = tuple(_require(x, f"preparation.labels[{i}]", "string") for i, x in enumerate(prep_obj["labels"]))
            if sorted(order) != sorted(labels):
                raise ScenarioError(f"generalized preparation labels must cover the {protocol} labels")
            if len(order) != len(table):
                raise ScenarioError("one label per measurement outcome is required")
        else:
            table, order = _label_operations(method), TWELVE_STATE_LABELS
        operations, inputs = table[[order.index(label) for label in labels]], _label_inputs(labels)

        if "mixed_bloch" in obj:
            mixed_bloch = _bloch(obj["mixed_bloch"], "mixed_bloch")
            if math.hypot(*mixed_bloch) >= 1.0:  # np.dot would overflow, with a warning, on 1e300
                raise ScenarioError("mixed_bloch must have norm strictly below 1")
            if method != "measurement":
                raise ScenarioError("mixed_bloch requires the measurement preparation method")
            # The mixed record applies X = state_from_bloch(b): its eigenvalues (1 +- |b|)/2 lie in [0, 1].
            x = state_from_bloch(mixed_bloch)
            labels, inputs = labels + (MIXED_LABEL,), np.concatenate([inputs, [x]])
            operations = np.concatenate([operations, [superoperator((1.0,), (x,))]])

        shots = _integer(obj, "shots", None)
        if shots is not None and not 0 < shots < 2**63:  # numpy draws counts as C longs
            raise ScenarioError("shots must be positive and below 2**63")
        seed = _integer(obj, "seed", None)
        if seed is not None and seed < 0:
            raise ScenarioError("seed must be non-negative")

        return Scenario(name=name, spec=spec, t=t, protocol=protocol, prep_method=method, labels=labels,
                        operations=operations, inputs=inputs, shots=shots, seed=seed)
    except ProcmapError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _bloch_state(bloch_a: tuple[float, float, float], c23: float) -> np.ndarray:
    return read_only(correlated_pair_state(bloch_a, c23))


@functools.cache
def _label_inputs(labels: tuple[str, ...]) -> np.ndarray:
    """The read-only (n, 2, 2) stack of the state each of `labels` names."""
    return read_only(np.array([state_of_label(label) for label in labels]))


@functools.cache
def _label_operations(method: str) -> np.ndarray:
    """The read-only (12, 4, 4) stack of S that prepares each of TWELVE_STATE_LABELS by `method`; |t> = (t0, t1).

    Stochastic preparation, a pin to |0> and a rotation to |t>, replaces the system's state by |t>: {|t><0|, |t><1|}.
    Rotation-only (imperfect-pin) preparation applies V = [[t0, -conj(t1)], [t1, conj(t0)]], V|0> = |t>, fixed by
    the ket's gauge, to gamma0 itself, so the true input is not the assumed projector.
    """
    superops = []
    for label in TWELVE_STATE_LABELS:
        t0, t1 = ket = ket_of_label(label)
        kraus = {"measurement": [state_of_label(label)], "stochastic": [np.outer(ket, e) for e in np.eye(DIM_SYS)],
                 "rotation_only": [np.array([[t0, -np.conj(t1)], [t1, np.conj(t0)]])]}[method]
        superops.append(superoperator((1.0,) * len(kraus), kraus))
    return read_only(np.array(superops))


# Each record's preparing measurement, as a key its records share: generalized preparation has one, measurement
# preparation one per direction d (labels d+, d-) and one for the mixed record.  The others always yield (gamma = 1).
_MEASUREMENT_KEY = {"generalized": lambda label: "", "measurement": lambda label: label.rstrip("+-")}


def _degrade(sc: Scenario, gammas: np.ndarray, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial estimates of the exact `gammas` and `outputs` of the records `sc.labels` at sc.shots shots.

    A record's gamma is the probability of one outcome of the measurement that prepares its input, so each
    preparing measurement's outcomes are counted in one multinomial over the outcomes its records name plus one
    for every other outcome.  One generator, seeded with sc.seed (0 when absent), draws the measurements in label
    order, then each output's three Pauli axes, record by record.
    """
    shots, est = sc.shots, gammas.copy()
    rng = np.random.default_rng(sc.seed if sc.seed is not None else 0)
    key, measurements = _MEASUREMENT_KEY.get(sc.prep_method), {}
    for i, label in enumerate(sc.labels if key else ()):
        measurements.setdefault(key(label), []).append(i)
    for rows in measurements.values():
        p = gammas[rows].tolist()  # complete only within STATE_TOL, p may sum above 1, which multinomial refuses
        total = math.fsum(p)
        est[rows] = rng.multinomial(shots, [x / max(total, 1.0) for x in p] + [max(1.0 - total, 0.0)])[:-1] / shots
    ups = rng.binomial(shots, np.clip(0.5 * (1.0 + bloch_vector(outputs)), 0.0, 1.0))
    return est, state_from_bloch(2.0 * ups / shots - 1.0)


@functools.lru_cache(maxsize=1)
def _gammas(gamma0: tuple, operations: tuple, labels: tuple[str, ...]) -> np.ndarray:
    """The read-only gamma of each of `labels`, from the `array_key` of gamma0 and of its operations stack."""
    return read_only(prepare_generalized(keyed_array(*gamma0), keyed_array(*operations), label=labels))


def simulate_scenario(sc: Scenario, scenario_sha256: str = "") -> Dataset:
    """The checked Dataset of the records of `sc`, else ScenarioError; `scenario_sha256` is the scenario's digest."""
    m = build_M_from_dynamics(sc.spec)
    gammas = _gammas(array_key(sc.spec.gamma0), array_key(sc.operations), sc.labels)
    outputs = run_process(m, sc.operations, gammas)
    if sc.shots is not None:
        gammas, outputs = _degrade(sc, gammas, outputs)

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
        oracle = element_table_from_map(m)
    try:  # every read of the dataset runs these checks, so simulate refuses what no read would accept
        return Dataset.checked(sc.labels, gammas.tolist(), np.concatenate((sc.inputs, outputs)), metadata, oracle)
    except ValueError as exc:
        raise ScenarioError(f"malformed dataset: {exc}") from exc


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
    return IMPERFECT_PIN_PURE_WEIGHT * tensor(state_of_label("3+"), tau) + (1 - IMPERFECT_PIN_PURE_WEIGHT) * chi


# Each demo's preparation method; the two Heisenberg demos share their process.
_DEMO_METHODS = {"stochastic-heisenberg": "stochastic", "measurement-correlated": "measurement",
                 "imperfect-pin": "rotation_only"}
DEMO_NAMES = tuple(_DEMO_METHODS)


def demo_scenario_config(name: str) -> dict:
    """Scenario JSON for a shipped demo; raises ScenarioError on unknown names."""
    if name not in _DEMO_METHODS:
        raise ScenarioError(f"unknown demo {shown(name)}; expected one of {', '.join(DEMO_NAMES)}")
    config = {"dimA": 2, "dimB": 2, "hamiltonian": "heisenberg", "t": math.pi / 8.0,
              "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": 0.3},
              "preparation": {"method": _DEMO_METHODS[name]}, "protocol": "verify12"}
    if name == "imperfect-pin":
        config.update(hamiltonian=jsonio.matrix_to_json(tensor(SIGMA_1, SIGMA_3)), t=IMPERFECT_PIN_T,
                      gamma0=jsonio.matrix_to_json(_imperfect_pin_gamma0()))
    if name == "measurement-correlated":
        config["mixed_bloch"] = [0.5, 0.0, 0.0]
    return config
