"""Shared test oracles, independent of the library code paths they check.

Besides scenario builders (`random_scenario`: a parsed scenario of any protocol and
preparation method on any process, its measurement mixed record at `MIXED_BLOCH`) and the
hand-written Bloch vector of every protocol label (the oracle for
`records.state_of_label`), this holds the hand-derived
solutions that the library replaced by one least-squares fit: the
Hilbert-Schmidt dual frame of linear tomography, and the eight linear sum
rules and three bi-linear consistency equations of the 12-state
verification protocol.  That fit itself, one np.linalg.lstsq per call, is
`reference_fit`, the oracle for the once-per-design factorization in
`records.fit`.  It also keeps the per-element paths that bulk
operations replaced: the value-by-value JSON layout (floats by shortest
repr), the entry-by-entry matrix encoder and decoder, the record-by-record
dataset and element-table encoders built on it, the einsum contraction
of the process tensor, the matrix-unit loop of the fixed-environment map and
the einsum partial trace over the environment of a fully formed U J U'.
The matrix-unit loop is also the oracle for the fixed-environment map itself.
The ket table in `records` replaced the eigh-based ket of a projector
(`ket_from_projector`, in the table's gauge) and the rotation between two kets
and their perpendicular partners (`rotation_between`); both stay as oracles,
with `is_projector` as the test predicate.
The library holds an operation only as its superoperator S; here it keeps its
Kraus form, a pair (weights, kraus) for rho -> sum_a w_a C_a rho C_a', and a
measurement is a tuple of such pairs.  The Kraus form is the oracle for S:
`kraus_superoperator` (S term by term with np.kron), `effect` (sum_a w_a C_a'C_a,
whose sum over outcomes is the completeness oracle) and `kraus_of_label`, the
Kraus-form table of the preparations whose S `scenarios.parse_scenario` stacks
in `Scenario.operations`.  `superoperators` is the library's stack of S for a Kraus-form measurement.
The preparation routes that `dynamics.prepare_generalized` replaced are oracles
for it: the pin of gamma0 and the stochastic rotation of the pinned state,
projection with the P (x) tau cross-check, the completed measurement
{X, sqrt(1 - X^2)} of the mixed record, and a dense (C x 1) evaluation of any
outcome map.  So is the joint-space route that the process tensor replaced
(`prepare_joint`, `run_joint`): the operation applied to the system factor of
gamma0 with (C x 1) never formed, then Tr_env[U J U'] from one product U J,
with its helpers `conjugate_system` and `partial_trace_sys`; `joint_of` turns a
library preparation, S and gamma, back into the joint state it stands for.
Then come the field-by-field bi-linear element table and its prediction loop,
which the stacked table and its probe contraction replaced, and the matrix
element <A|M|B> they are built from; the loop, with `MixedWithoutUnitUnit`,
is the only prediction from a table, read off a solved one by
`HandElementTable.from_stacked`.  `reference_simulate` is the per-label loop
that `scenarios.simulate_scenario` replaced by one stacked call each of
`prepare_generalized` and `run_process`, built from single-S calls and each
label's Kraus form, so it is the bit-for-bit oracle for the stacked program and
its table of S.  The shot model is one rule: each measurement that prepares
records (`preparing_measurements`) draws its outcome counts as one multinomial,
over the outcomes its records name plus one for the rest, then each output axis
is one binomial count, every draw independent.  `reference_shot_dataset` applies
it record by record, the oracle for `scenarios._degrade`'s draw order, and
`shot_moments` is its analytic mean and covariance; `twelve_outcome_config` is a
complete twelve-outcome measurement that exercises it.  Last is the dilation of
a generalized measurement: a unitary on system x ancillas followed by a von
Neumann readout of an ancilla, another independent route to
`dynamics.prepare_generalized`.  `reference_pair_state` is the term-by-term loop that
`dynamics.correlated_pair_state` replaced by a sum of constant terms.  `PROCESS_CACHES` lists
the caches that keep process data from one call to the next, which the tests clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from procmap import dynamics, jsonio, records, scenarios
from procmap.bilinear_tomo import CROSS_PAIRS, ZeroGamma
from procmap.dynamics import (
    ZERO_PROBABILITY_TOL,
    InvalidMeasurement,
    ProcessSpec,
    ZeroProbabilityOutcome,
    build_M_from_dynamics,
    check_completeness,
    correlated_pair_state,
    heisenberg_hamiltonian,
    prepare_generalized,
    run_process,
    superoperator,
    unitary_from_hamiltonian,
)
from procmap.linear_tomo import NotAFrame
from procmap.qstate import (
    DIM_SYS,
    IDENTITY_2,
    PAULIS,
    STATE_TOL,
    UNITARY_TOL,
    bloch_vector,
    dagger,
    hermiticity_residual,
    state_from_bloch,
    tensor,
    validate_unitary,
)
from procmap.records import (
    MIXED_LABEL,
    PROTOCOL_LABELS,
    TWELVE_STATE_LABELS,
    Dataset,
    Fit,
    ket_of_label,
    state_of_label,
)
from procmap.scenarios import Scenario, demo_scenario_config, parse_scenario

SQRT2 = float(np.sqrt(2.0))

# The Bloch vector of every protocol label, written out by hand.
BLOCH_BY_LABEL = {
    "1+": (1.0, 0.0, 0.0),
    "1-": (-1.0, 0.0, 0.0),
    "2+": (0.0, 1.0, 0.0),
    "2-": (0.0, -1.0, 0.0),
    "3+": (0.0, 0.0, 1.0),
    "3-": (0.0, 0.0, -1.0),
    "4+": (1.0 / SQRT2, 1.0 / SQRT2, 0.0),
    "4-": (-1.0 / SQRT2, -1.0 / SQRT2, 0.0),
    "5+": (1.0 / SQRT2, 0.0, 1.0 / SQRT2),
    "5-": (-1.0 / SQRT2, 0.0, -1.0 / SQRT2),
    "6+": (0.0, 1.0 / SQRT2, 1.0 / SQRT2),
    "6-": (0.0, -1.0 / SQRT2, -1.0 / SQRT2),
}

T_DEMO = math.pi / 8.0
A2_DEMO = 0.5
C23_DEMO = 0.3
# The input of the mixed record that `random_scenario` adds to a measurement scenario.
MIXED_BLOCH = np.array([0.3, -0.2, 0.4])

# Every functools cache in procmap that keeps process data (a design, H, gamma0, gammas) from one call to the next.
PROCESS_CACHES = (records._factor, dynamics._eigenbasis, dynamics._checked_state, scenarios._gammas)


def rand_unitary(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def rand_unit_bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_measurement(rng, mu: int, dim: int = 2, max_kraus: int = 3) -> tuple:
    """Random valid Kraus-form measurement: normalize arbitrary Kraus sets to completeness."""
    raw = []
    for _ in range(mu):
        k = int(rng.integers(1, max_kraus + 1))
        raw.append(
            [
                (float(rng.uniform(0.2, 1.5)), rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                for _ in range(k)
            ]
        )
    total = np.zeros((dim, dim), dtype=complex)
    for maps in raw:
        for w, c in maps:
            total += w * c.conj().T @ c
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return tuple((tuple(w for w, _ in maps), tuple(c @ inv_sqrt for _, c in maps)) for maps in raw)


def effect(operation) -> np.ndarray:
    """sum_a w_a C_a' C_a of a Kraus-form operation: the operator whose expectation is its probability."""
    weights, kraus = operation
    return sum(w * (dagger(c) @ c) for w, c in zip(weights, kraus))


def completeness_residual(measurement) -> float:
    """max |sum over outcomes of the effect - 1| of a Kraus-form measurement."""
    total = sum(effect(operation) for operation in measurement)
    return float(np.max(np.abs(total - np.eye(len(total)))))


def kraus_superoperator(operation) -> np.ndarray:
    """sum_a w_a C_a (x) conj(C_a) term by term with np.kron, a weight of exactly 1.0 multiplying nothing."""
    acc = None
    for w, c in zip(*operation):
        term = np.kron(c, np.conj(c)) if w == 1.0 else w * np.kron(c, np.conj(c))
        acc = term if acc is None else acc + term
    return acc


def superoperators(measurement) -> np.ndarray:
    """The library's (n, 4, 4) stack of outcome superoperators of a Kraus-form measurement."""
    return np.array([superoperator(weights, kraus) for weights, kraus in measurement])


def random_scenario(rng, method: str, spec: ProcessSpec, protocol: str = "verify12") -> tuple[Scenario, dict | None]:
    """A parsed `protocol` scenario of `method` on `spec`, and the Kraus form of each label's generalized outcome
    (None for the other methods).

    A generalized scenario draws a random measurement with one outcome per label, then a shuffled label order, so
    that the label -> outcome lookup is checked too; a measurement scenario adds the mixed record of MIXED_BLOCH.
    `parse_scenario` builds the records of a heisenberg scenario, whose process is then replaced by `spec`.
    """
    config = {"hamiltonian": "heisenberg", "gamma0": {"bloch_a": [0.0, 0.0, 0.0]}, "protocol": protocol,
              "preparation": {"method": method}}
    meas = None
    if method == "generalized":
        labels = PROTOCOL_LABELS[protocol]
        outcomes = random_measurement(rng, len(labels))
        order = [str(label) for label in rng.permutation(labels)]
        measurement = {"outcomes": [{"weights": list(weights), "kraus": jsonio.matrices_to_json(kraus)}
                                    for weights, kraus in outcomes]}
        config["preparation"].update(measurement=measurement, labels=order)
        meas = dict(zip(order, outcomes))
    if method == "measurement":
        config["mixed_bloch"] = MIXED_BLOCH.tolist()
    return replace(parse_scenario(config, name=method), spec=spec), meas


def kraus_of_label(sc, label: str, measurement=None) -> tuple:
    """The Kraus form of the operation that prepares `label` in `sc`, whose S `Scenario.operations` stacks.

    A scenario holds a generalized measurement only as S, so the Kraus form of each label's outcome, `measurement`,
    is passed in.  The mixed record applies its input X.
    """
    if sc.prep_method == "generalized":
        return measurement[label]
    if label == MIXED_LABEL:
        return (1.0,), (sc.inputs[sc.labels.index(MIXED_LABEL)],)
    if sc.prep_method == "measurement":
        return (1.0,), (state_of_label(label),)
    ket = ket_of_label(label)
    if sc.prep_method == "stochastic":
        return (1.0, 1.0), tuple(np.outer(ket, e) for e in np.eye(2))
    t0, t1 = ket
    return (1.0,), (np.array([[t0, -np.conj(t1)], [t1, np.conj(t0)]]),)


def partial_trace_env(joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Trace out the environment of a (dim_sys*dim_env)-dimensional joint operator.

    Composite index convention: (i, alpha) -> i * dim_env + alpha.
    """
    joint = np.asarray(joint, dtype=complex)
    d = dim_sys * dim_env
    if joint.shape != (d, d):
        raise ValueError(f"joint has shape {joint.shape}, expected ({d}, {d})")
    blocks = joint.reshape(dim_sys, dim_env, dim_sys, dim_env)
    return np.einsum("iaja->ij", blocks)


def brute_force_env_trace(joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Partial trace over the environment by explicit index loops."""
    out = np.zeros((dim_sys, dim_sys), dtype=complex)
    for r in range(dim_sys):
        for s in range(dim_sys):
            for a in range(dim_env):
                out[r, s] += joint[r * dim_env + a, s * dim_env + a]
    return out


def brute_force_output(u: np.ndarray, joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Direct evaluation of the process pipeline: conjugate then env-trace."""
    return brute_force_env_trace(u @ joint @ u.conj().T, dim_sys, dim_env)


def closed_form_lambda_s(t: float) -> np.ndarray:
    """Stochastic-preparation process map for the exchange coupling at time t."""
    c2 = math.cos(2.0 * t) ** 2
    return 0.5 * np.array(
        [
            [1 + c2, 0, 0, 2 * c2],
            [0, 1 - c2, 0, 0],
            [0, 0, 1 - c2, 0],
            [2 * c2, 0, 0, 1 + c2],
        ],
        dtype=complex,
    )


def closed_form_lambda_m(t: float, a2: float, c23: float) -> np.ndarray:
    """Measurement-preparation linear fit for the correlated pair state."""
    c = math.cos(2.0 * t)
    s = math.sin(2.0 * t)
    cp = c23 / (1.0 + a2)
    return 0.5 * np.array(
        [
            [1 + c * c, 1j * cp * s * s, 0, 2 * c * c - 1j * cp * c * s],
            [-1j * cp * s * s, 1 - c * c, 1j * cp * c * s, 0],
            [0, -1j * cp * c * s, 1 - c * c, -1j * cp * s * s],
            [2 * c * c + 1j * cp * c * s, 0, 1j * cp * s * s, 1 + c * c],
        ],
        dtype=complex,
    )


def reference_pair_state(bloch_a, c23: float) -> np.ndarray:
    """`dynamics.correlated_pair_state` term by term, each tensor product formed as it is added."""
    bloch_a = np.asarray(bloch_a, dtype=float)
    eye = np.eye(2, dtype=complex)
    gamma = tensor(eye, eye).astype(complex)
    for a_j, sigma in zip(bloch_a, PAULIS):
        gamma += a_j * tensor(sigma, eye)
    gamma += c23 * tensor(PAULIS[1], PAULIS[2])
    return 0.25 * gamma


def va_spec(t: float = T_DEMO, a2: float = A2_DEMO, c23: float = C23_DEMO) -> ProcessSpec:
    """The measurement-preparation example process: exchange coupling on a correlated pair."""
    gamma0 = correlated_pair_state([0.0, a2, 0.0], c23)
    u = unitary_from_hamiltonian(heisenberg_hamiltonian(), t)
    return ProcessSpec(u=u, gamma0=gamma0)


@dataclass(frozen=True)
class JointState:
    """A post-preparation joint state with its outcome probability."""

    joint: np.ndarray
    gamma: float


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


def prepare_joint(gamma0: np.ndarray, operation, label: str = "") -> JointState:
    """The joint-space preparation: sum_a w_a (C_a x 1) gamma0 (C_a x 1)' over its trace gamma.

    A trace-preserving operation gives gamma = 1.0 and no division.  A rank-1
    projector P must leave P (x) tau, checked before the division by gamma.
    """
    weights, kraus = operation
    terms = [conjugate_system(c, gamma0) if w == 1.0 else w * conjugate_system(c, gamma0)
             for w, c in zip(weights, kraus)]
    acc = sum(terms[1:], terms[0])
    if np.abs(effect(operation) - np.eye(DIM_SYS)).max() <= UNITARY_TOL:
        return JointState(joint=acc, gamma=1.0)
    gamma = float(np.trace(acc).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    p = kraus[0]
    if len(kraus) == 1 and is_projector(p, tol=1e-12):
        if np.max(np.abs(acc - tensor(p, partial_trace_sys(acc)))) > 1e-12:
            raise ValueError("projected joint state does not factorize as P (x) tau")
    return JointState(joint=acc / gamma, gamma=gamma)


def run_joint(spec: ProcessSpec, prepared: JointState) -> np.ndarray:
    """Tr_env[U J U'] of a prepared joint state, from one product U J; never forms U J U'."""
    out = (spec.u @ prepared.joint).reshape(DIM_SYS, -1) @ dagger(spec.u.reshape(DIM_SYS, -1))
    if hermiticity_residual(out) * prepared.gamma > 1e-12:
        raise ValueError("process output lost hermiticity")
    return 0.5 * (out + dagger(out))


def joint_of(s: np.ndarray, gamma: float, gamma0: np.ndarray) -> np.ndarray:
    """The joint state a library preparation stands for: S applied to the system factor of gamma0, over gamma.

    J[(p, a), (q, b)] = sum_{x, y} S[(p, q), (x, y)] gamma0[(x, a), (y, b)] / gamma.
    """
    nb = len(gamma0) // DIM_SYS
    g4 = np.asarray(gamma0, dtype=complex).reshape(DIM_SYS, nb, DIM_SYS, nb)
    s4 = s.reshape((DIM_SYS,) * 4)
    return np.einsum("pqxy,xayb->paqb", s4, g4).reshape(len(gamma0), len(gamma0)) / gamma


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
    """State vector of a rank-1 projector from `eigh`, its first component of largest magnitude real and positive."""
    p = np.asarray(p, dtype=complex)
    if not is_projector(p, tol):
        raise ValueError("matrix is not a rank-1 projector within tolerance")
    ket = np.linalg.eigh(p)[1][:, -1]
    pivot = int(np.argmax(np.abs(ket)))
    return ket / (ket[pivot] / abs(ket[pivot]))


def perpendicular_ket(ket: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal partner of a qubit state vector."""
    ket = np.asarray(ket, dtype=complex)
    return np.array([-np.conj(ket[1]), np.conj(ket[0])])


def rotation_between(from_ket: np.ndarray, to_ket: np.ndarray) -> np.ndarray:
    """Qubit unitary V with V|a> = |b>, built as |b><a| + |b_perp><a_perp|; raises ValueError unless unitary."""
    a = np.asarray(from_ket, dtype=complex)
    b = np.asarray(to_ket, dtype=complex)
    v = np.outer(b, np.conj(a)) + np.outer(perpendicular_ket(b), np.conj(perpendicular_ket(a)))
    validate_unitary(v)
    return v


def pin(gamma0: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pin the qubit system to the pure state `target`: target (x) tau, tau the environment marginal of gamma0."""
    nb = len(gamma0) // 2
    return tensor(target, np.einsum("iaib->ab", np.asarray(gamma0).reshape(2, nb, 2, nb)))


def prepare_stochastic(joint_pinned: np.ndarray, v: np.ndarray) -> JointState:
    """Rotate a pinned joint state by a system unitary; outcome probability is 1."""
    validate_unitary(v)
    dim_sys = v.shape[0]
    d = np.asarray(joint_pinned).shape[0]
    if d % dim_sys:
        raise ValueError("joint dimension is not a multiple of the system dimension")
    return JointState(joint=conjugate_system(v, joint_pinned), gamma=1.0)


def prepare_projective(gamma0: np.ndarray, dim_sys: int, dim_env: int, p: np.ndarray, label: str = "") -> JointState:
    """Prepare by a von Neumann measurement outcome: project and renormalize.

    gamma = Tr[(P x 1) gamma0], the probability of obtaining this input state.
    Raises ZeroProbabilityOutcome when the experiment never yields this input.
    """
    gamma0 = np.asarray(gamma0, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if not is_projector(p):
        raise ValueError("projective preparation requires a rank-1 projector")
    projected = conjugate_system(p, gamma0)
    gamma = float(np.trace(projected).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    joint = projected / gamma
    # The projected joint factorizes as P (x) tau; cross-check both forms.
    tau = np.einsum("iaib->ab", joint.reshape(dim_sys, dim_env, dim_sys, dim_env))
    if np.max(np.abs(joint - tensor(p, tau))) > 1e-12:
        raise ValueError("projected joint state does not factorize as P (x) tau")
    return JointState(joint=joint, gamma=gamma)


def mixed_preparation_measurement(x: np.ndarray) -> tuple:
    """Two-outcome measurement {X, sqrt(1 - X^2)} whose outcome 0 prepares the mixed operator X.

    Outcome 0 produces (X x 1) gamma0 (X x 1) / gamma, the bi-linear process
    equation evaluated at X; the second Kraus operator only completes the set.
    """
    x = np.asarray(x, dtype=complex)
    w, v = np.linalg.eigh(x)
    if w[0] < 0 or w[-1] > 1:
        raise ValueError("mixed preparation target must satisfy 0 <= X <= 1")
    rest = (v * np.sqrt(np.clip(1.0 - w**2, 0.0, None))) @ v.conj().T
    return ((1.0,), (x,)), ((1.0,), (rest,))


def prepare_dense(base: np.ndarray, dim_env: int, operation) -> JointState:
    """sum_a w_a (C_a x 1) base (C_a x 1)' / gamma with every C_a x 1 formed densely."""
    acc = 0
    for w, c in zip(*operation):
        big = tensor(c, np.eye(dim_env))
        acc = acc + w * (big @ base @ dagger(big))
    gamma = float(np.trace(acc).real)
    return JointState(joint=acc / gamma, gamma=gamma)


def measured_records(spec: ProcessSpec, labels) -> Dataset:
    """Projective-preparation records for the given protocol labels."""
    inputs, outputs, gammas = [], [], []
    for label in labels:
        p = state_of_label(label)
        prepared = prepare_projective(spec.gamma0, 2, spec.dim_env, p, label=label)
        inputs.append(p)
        outputs.append(brute_force_output(spec.u, prepared.joint, 2, spec.dim_env))
        gammas.append(prepared.gamma)
    return Dataset(tuple(labels), inputs, outputs, gammas)


def stochastic_records(spec: ProcessSpec, labels) -> Dataset:
    """Pin-then-rotate records; the pinned environment is the gamma0 marginal."""
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    pinned = pin(spec.gamma0, zero)
    inputs, outputs, gammas = [], [], []
    for label in labels:
        p = state_of_label(label)
        v = rotation_between(ket_from_projector(zero), ket_from_projector(p))
        prepared = prepare_stochastic(pinned, v)
        inputs.append(p)
        outputs.append(brute_force_output(spec.u, prepared.joint, 2, spec.dim_env))
        gammas.append(prepared.gamma)
    return Dataset(tuple(labels), inputs, outputs, gammas)


def reference_simulate(sc, measurement=None) -> Dataset:
    """The exact dataset of `sc` by the per-label loop that `scenarios.simulate_scenario` replaced.

    Label by label in protocol order, then the mixed record: the label's S from its Kraus form (`kraus_of_label`, a
    generalized outcome's from `measurement`), one single-S `prepare_generalized` call for gamma and one
    `run_process` call for the output.
    """
    m = build_M_from_dynamics(sc.spec)
    inputs, outputs, gammas = [], [], []
    for label in sc.labels:
        weights, kraus = kraus_of_label(sc, label, measurement)
        s = superoperator(weights, kraus)
        gamma = prepare_generalized(sc.spec.gamma0, s, label=label)
        inputs.append(kraus[0] if label == MIXED_LABEL else state_of_label(label))
        outputs.append(run_process(m, s, gamma))
        gammas.append(gamma)
    return Dataset(sc.labels, inputs, outputs, gammas)


def preparing_measurements(sc) -> list[list[str]]:
    """The labels of each measurement that prepares the records of `sc`, in the order of their first label.

    A generalized preparation is one measurement over all its outcomes.  Measurement preparation measures each
    direction d as {P(d+), P(d-)} and the mixed record's X as {X, sqrt(1 - X^2)}.  Stochastic and rotation-only
    preparations measure nothing: they yield their input every time.
    """
    groups: dict[str, list[str]] = {}
    for label in sc.labels:
        if sc.prep_method == "generalized":
            groups.setdefault("all outcomes", []).append(label)
        elif sc.prep_method == "measurement":
            groups.setdefault(label if label == MIXED_LABEL else label[:-1], []).append(label)
    return list(groups.values())


def reference_shot_dataset(sc, exact: Dataset) -> Dataset:
    """The finite-shot dataset of `sc` from its exact dataset, record by record.

    The shot model drawn from one generator seeded with sc.seed (0 when absent):
    first, measurement by measurement (`preparing_measurements`), one multinomial
    over the outcomes its records name plus one outcome for all the others, each
    record's gamma becoming its outcome's count over shots; then, record by record
    in label order, one binomial per Pauli axis of the output's Bloch vector.
    Probabilities that sum above 1 (completeness holds within STATE_TOL) are
    scaled to sum to 1.
    """
    rng = np.random.default_rng(sc.seed if sc.seed is not None else 0)
    gammas = dict(zip(exact.labels, exact.gammas.tolist()))
    for names in preparing_measurements(sc):
        p = [gammas[label] for label in names]
        total = math.fsum(p)
        counts = rng.multinomial(sc.shots, [x / max(total, 1.0) for x in p] + [max(1.0 - total, 0.0)])
        for label, count in zip(names, counts):
            gammas[label] = count / sc.shots
    outputs = []
    for output in exact.outputs:
        bloch = [2.0 * rng.binomial(sc.shots, min(max(0.5 * (1.0 + b), 0.0), 1.0)) / sc.shots - 1.0
                 for b in bloch_vector(output)]
        outputs.append(state_from_bloch(bloch))
    return Dataset(exact.labels, exact.inputs, outputs, [gammas[label] for label in exact.labels])


def shot_moments(sc, exact: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The mean and covariance, under the shot model at sc.shots, of the vector of every record's gamma followed by
    every record's output Bloch vector (x, y, z), records in label order.

    Within a preparing measurement the counts are multinomial, so Cov(gamma_i, gamma_j) is
    (delta_ij p_i - p_i p_j) / shots.  An output axis b is 2 u / shots - 1 for a binomial count u of
    probability (1 + b) / 2, so Var(b) = (1 - b^2) / shots.  Every other pair is independent, and a
    gamma that no measurement draws is exact.
    """
    k, shots = len(exact.labels), sc.shots
    row = {label: i for i, label in enumerate(exact.labels)}
    bloch = np.array([[np.trace(pauli @ output).real for pauli in PAULIS] for output in exact.outputs]).ravel()
    cov = np.zeros((4 * k, 4 * k))
    for names in preparing_measurements(sc):
        rows = [row[label] for label in names]
        p = exact.gammas[rows]
        cov[np.ix_(rows, rows)] = (np.diag(p) - np.outer(p, p)) / shots
    cov[k:, k:] = np.diag((1.0 - bloch**2) / shots)
    return np.concatenate([exact.gammas, bloch]), cov


def twelve_outcome_config() -> dict:
    """The measurement demo's process prepared by a complete twelve-outcome measurement: the outcome of each
    verify12 label has the label's projector as its Kraus operator, with weight 1/6, so gamma(d+) + gamma(d-)
    is 1/6 in every direction d."""
    outcomes = [{"weights": [1.0 / 6.0], "kraus": [jsonio.matrix_to_json(state_of_label(label))]}
                for label in TWELVE_STATE_LABELS]
    preparation = {"method": "generalized", "measurement": {"outcomes": outcomes}, "labels": list(TWELVE_STATE_LABELS)}
    config = {**demo_scenario_config("measurement-correlated"), "preparation": preparation}
    del config["mixed_bloch"]  # mixed_bloch requires measurement preparation
    return config


@dataclass(frozen=True)
class DualFrame:
    """Tomography inputs together with their Hilbert-Schmidt duals."""

    inputs: tuple[np.ndarray, ...]
    duals: tuple[np.ndarray, ...]

    def biorthogonality_residual(self) -> float:
        k = len(self.inputs)
        res = 0.0
        for m in range(k):
            for n in range(k):
                val = np.trace(dagger(self.duals[m]) @ self.inputs[n])
                res = max(res, abs(val - (1.0 if m == n else 0.0)))
        return float(res)


def compute_duals(inputs) -> DualFrame:
    """Duals of the input states under the Hilbert-Schmidt scalar product.

    Inverts the Gram matrix G[m,n] = Tr[P(m)' P(n)]; requires exactly N^2
    linearly independent inputs.
    """
    inputs = tuple(np.asarray(p, dtype=complex) for p in inputs)
    if not inputs:
        raise NotAFrame("no input states supplied")
    n = inputs[0].shape[0]
    if any(p.shape != (n, n) for p in inputs):
        raise NotAFrame("input states have inconsistent dimensions")
    k = len(inputs)
    if k != n * n:
        raise NotAFrame(f"need exactly {n * n} input states for dimension {n}, got {k}")
    gram = np.empty((k, k), dtype=complex)
    for m in range(k):
        for j in range(k):
            gram[m, j] = np.trace(dagger(inputs[m]) @ inputs[j])
    if np.linalg.cond(gram) > 1e12:
        raise NotAFrame("input states are not linearly independent (singular Gram matrix)")
    ginv = np.linalg.inv(gram)
    duals = tuple(
        sum(ginv[j, m] * inputs[j] for j in range(k))
        for m in range(k)
    )
    frame = DualFrame(inputs=inputs, duals=duals)
    res = frame.biorthogonality_residual()
    if res > 1e-10:
        raise NotAFrame(f"computed duals violate biorthogonality (residual {res:.3e})")
    return frame


def linear_sum_rule_residuals(dataset: Dataset) -> dict[str, float]:
    """Max-abs entry of (LHS - RHS) for each of the eight output sum rules."""
    q = dict(zip(TWELVE_STATE_LABELS, dataset.subset(TWELVE_STATE_LABELS).outputs))
    base = q["1+"] + q["1-"]
    combos = {
        "Q2-": (q["2-"], base - q["2+"]),
        "Q3-": (q["3-"], base - q["3+"]),
        "Q4+": (q["4+"], 0.5 * base + (q["2+"] - q["1-"]) / SQRT2),
        "Q4-": (q["4-"], 0.5 * base - (q["2+"] - q["1-"]) / SQRT2),
        "Q5+": (q["5+"], 0.5 * base + (q["3+"] - q["1-"]) / SQRT2),
        "Q5-": (q["5-"], 0.5 * base - (q["3+"] - q["1-"]) / SQRT2),
        "Q6+": (q["6+"], 0.5 * base + (q["2+"] + q["3+"] - base) / SQRT2),
        "Q6-": (q["6-"], 0.5 * base - (q["2+"] + q["3+"] - base) / SQRT2),
    }
    return {name: float(np.max(np.abs(lhs - rhs))) for name, (lhs, rhs) in combos.items()}


def bilinear_consistency_residuals(dataset: Dataset) -> dict[str, float]:
    """Max-abs entry of (LHS - RHS) for the three bi-linear consistency equations.

    Each equation predicts the probability-weighted output of an opposite
    diagonal projector from the nine protocol records.
    """
    twelve = dataset.subset(TWELVE_STATE_LABELS)
    gq = dict(zip(TWELVE_STATE_LABELS, twelve.gammas[:, None, None] * twelve.outputs))
    residuals = {}
    for name, (j, k), minus_label, plus_label in (
        ("GQ4-", (1, 2), "4-", "4+"),
        ("GQ5-", (1, 3), "5-", "5+"),
        ("GQ6-", (2, 3), "6-", "6+"),
    ):
        rhs = (
            gq[f"{j}-"] - gq[f"{j}+"] + gq[f"{k}-"] - gq[f"{k}+"]
        ) / SQRT2 + gq[plus_label]
        residuals[name] = float(np.max(np.abs(gq[minus_label] - rhs)))
    return residuals


def reference_fit(dataset: Dataset, degree: int) -> Fit:
    """`records.fit` by one np.linalg.lstsq per call, the solver its cached factorization replaced."""
    k = len(dataset.labels)
    design = dataset.inputs.reshape(k, 4)
    target = dataset.outputs.reshape(k, 4)
    if degree == 2:
        design = (np.conj(design)[:, :, None] * design[:, None, :]).reshape(k, 16)
        target = dataset.gammas[:, None] * target
    coef, _, rank, sv = np.linalg.lstsq(design, target, rcond=None)
    misfit = np.max(np.abs(design @ coef - target), axis=1)
    return Fit(
        coef=coef,
        residuals=dict(zip(dataset.labels, misfit.tolist())),
        rank=int(rank),
        cond=float(sv[0] / sv[rank - 1]) if rank else math.inf,
    )


_NAMED_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _ascii_string(text: str) -> str:
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _NAMED_ESCAPES:
            out.append(_NAMED_ESCAPES[ch])
        elif 0x20 <= code <= 0x7E:
            out.append(ch)
        elif code > 0xFFFF:  # a UTF-16 surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
        else:
            out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def _per_element(obj, indent: int | None, level: int) -> str:
    if indent is None:  # one line, items separated by ", "
        open_, sep, close = "", ", ", ""
    else:  # one item a line, indented `indent` spaces a level
        open_ = "\n" + " " * (indent * (level + 1))
        sep, close = "," + open_, "\n" + " " * (indent * level)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _ascii_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + open_ + sep.join(_per_element(v, indent, level + 1) for v in obj) + close + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items = [_ascii_string(k) + ": " + _per_element(v, indent, level + 1) for k, v in obj.items()]
        return "{" + open_ + sep.join(items) + close + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def per_element_dumps(obj, indent: int | None = None) -> str:
    """The layout `jsonio.dumps` writes, built value by value: one line, floats by repr, strings ASCII-escaped.

    An `indent` gives the layout of `json.dumps(obj, indent=indent)` instead, one item a line.
    """
    return _per_element(obj, indent, 0) + "\n"


def reference_matrix_to_json(mat: np.ndarray) -> dict:
    """Entry-by-entry encode of a complex matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    arr = np.asarray(mat, dtype=complex)
    rows, cols = arr.shape
    return {"rows": rows, "cols": cols, "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]}


def reference_to_json(dataset: Dataset) -> dict:
    """Record-by-record encode of a Dataset, each matrix by `reference_matrix_to_json`."""
    records = zip(dataset.labels, dataset.gammas.tolist(), dataset.inputs, dataset.outputs)
    out = {
        "records": [
            {"label": label, "gamma": gamma, "input": reference_matrix_to_json(i), "output": reference_matrix_to_json(o)}
            for label, gamma, i, o in records
        ],
        "metadata": {k: str(v) for k, v in dataset.metadata.items()},
    }
    if dataset.oracle is not None:
        out["oracle"] = reference_matrix_to_json(dataset.oracle.reshape(10, 4))
    return out


def reference_elements_to_json(elements: np.ndarray) -> dict:
    """Matrix-by-matrix encode of a (9, 2, 2) or (10, 2, 2) element table in `bilinear_tomo.elements_to_json` order."""
    mats = [reference_matrix_to_json(m) for m in elements]
    out = {"D": mats[0:3], "Y": mats[3:6], "Z": {f"{j}{k}": m for (j, k), m in zip(CROSS_PAIRS, mats[6:9])}}
    if len(mats) > 9:
        out["unit_unit"] = mats[9]
    return out


def reference_matrix_from_json(obj: dict) -> np.ndarray:
    """Entry-by-entry decode of the {"rows", "cols", "data"} matrix encoding."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        re, im = pair
        flat[i] = complex(float(re), float(im))
    if not np.isfinite(flat).all():
        raise ValueError("matrix JSON contains non-finite values")
    return flat.reshape(rows, cols)


def reference_raw_M(spec: ProcessSpec) -> np.ndarray:
    """Unsymmetrized process tensor m[r,s,x,p,y,q] by one three-operand einsum."""
    na, nb = 2, spec.dim_env
    u4 = np.asarray(spec.u, dtype=complex).reshape(na, nb, na, nb)
    g4 = np.asarray(spec.gamma0, dtype=complex).reshape(na, nb, na, nb)
    return np.einsum("repa,xayb,seqb->rsxpyq", u4, g4, np.conj(u4))


def reference_dynamical_map(u: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The fixed-environment map rho -> Tr_env[U (rho x tau) U'] in the `rrp-ssp` layout, matrix unit by unit."""
    u = np.asarray(u, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    dim_env = tau.shape[0]
    dim_sys = u.shape[0] // dim_env
    lam4 = np.zeros((dim_sys, dim_sys, dim_sys, dim_sys), dtype=complex)
    for rp in range(dim_sys):
        for sp in range(dim_sys):
            unit = np.zeros((dim_sys, dim_sys), dtype=complex)
            unit[rp, sp] = 1.0
            evolved = u @ tensor(unit, tau) @ dagger(u)
            out = partial_trace_env(evolved, dim_sys, dim_env)
            lam4[:, rp, :, sp] = out
    return lam4.reshape(dim_sys * dim_sys, dim_sys * dim_sys)


@dataclass(frozen=True)
class HandElementTable:
    """The bi-linear element table as one field per combination.

    diag_plus[j]  = <1|M|1> + <sigma_j|M|sigma_j>
    linear[j]     = <1|M|sigma_j> + <sigma_j|M|1>
    cross[(j,k)]  = <sigma_j|M|sigma_k> + <sigma_k|M|sigma_j>
    unit_unit     = <1|M|1>
    """

    diag_plus: tuple[np.ndarray, np.ndarray, np.ndarray]
    linear: tuple[np.ndarray, np.ndarray, np.ndarray]
    cross: dict[tuple[int, int], np.ndarray]
    unit_unit: np.ndarray | None = None

    def stacked(self) -> np.ndarray:
        """The fields stacked in the order of the library's element table (`bilinear_tomo.elements_to_json`)."""
        mats = list(self.diag_plus) + list(self.linear) + [self.cross[jk] for jk in CROSS_PAIRS]
        if self.unit_unit is not None:
            mats.append(self.unit_unit)
        return np.array(mats)

    @classmethod
    def from_stacked(cls, elements) -> "HandElementTable":
        """The fields of a stacked (9, 2, 2) or (10, 2, 2) table, such as `solve_M_elements` returns."""
        return cls(
            diag_plus=tuple(elements[0:3]),
            linear=tuple(elements[3:6]),
            cross=dict(zip(CROSS_PAIRS, elements[6:9])),
            unit_unit=elements[9] if len(elements) > 9 else None,
        )


class MixedWithoutUnitUnit(Exception):
    """Prediction for a mixed preparation requires the <1|M|1> element."""


def basis_element(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix element <A|M|B>[r,s] = sum conj(A[r'',r']) m[r,s,r'',r',s'',s'] B[s'',s'].

    <P|M|P> is the unnormalized output gamma*Q of the preparation P.
    """
    return np.einsum("xp,rsxpyq,yq->rs", np.conj(np.asarray(a, dtype=complex)), m, np.asarray(b, dtype=complex))


def reference_element_table(m: np.ndarray) -> HandElementTable:
    """Element table by direct contraction of the process tensor M with the {1, sigma_j} basis."""
    unit = basis_element(m, IDENTITY_2, IDENTITY_2)
    diag_plus = tuple(unit + basis_element(m, s, s) for s in PAULIS)
    linear = tuple(
        basis_element(m, IDENTITY_2, s) + basis_element(m, s, IDENTITY_2) for s in PAULIS
    )
    cross = {}
    for j, k in CROSS_PAIRS:
        sj, sk = PAULIS[j - 1], PAULIS[k - 1]
        cross[(j, k)] = basis_element(m, sj, sk) + basis_element(m, sk, sj)
    return HandElementTable(diag_plus=diag_plus, linear=linear, cross=cross, unit_unit=unit)


def reference_predict_output(table: HandElementTable, p) -> tuple[float, np.ndarray]:
    """Outcome probability and output state for Bloch vector p, term by term."""
    p = np.asarray(p, dtype=float)
    norm_sq = float(np.dot(p, p))
    pure = abs(norm_sq - 1.0) <= 1e-10
    if not pure and table.unit_unit is None:
        raise MixedWithoutUnitUnit(
            f"Bloch norm {np.sqrt(norm_sq):.6f} < 1 but the table has no <1|M|1> element"
        )
    four_gq = np.zeros((2, 2), dtype=complex)
    if not pure:
        four_gq += (1.0 - norm_sq) * table.unit_unit
    for j in range(3):
        four_gq += p[j] ** 2 * table.diag_plus[j] + p[j] * table.linear[j]
    for j, k in CROSS_PAIRS:
        four_gq += p[j - 1] * p[k - 1] * table.cross[(j, k)]
    gamma = float(np.trace(four_gq).real) / 4.0
    if gamma <= 1e-12:
        raise ZeroGamma(f"predicted outcome probability {gamma:.3e} is not positive")
    q = four_gq / (4.0 * gamma)
    return gamma, 0.5 * (q + np.conj(q).T)


def _dilation_dims(meas) -> tuple[int, int, int]:
    n = meas[0][1][0].shape[0]
    mu = len(meas)
    return n, mu, n * n


def build_dilation(meas) -> tuple[np.ndarray, tuple[int, int]]:
    """Dilation unitary realizing the Kraus-form measurement `meas` with two ancillas of sizes (mu, N^2).

    Basis ordering |r, j, alpha> with composite index r*(mu*N^2) + j*N^2 + alpha.
    Columns for |r', 0, 0> are fixed by the measurement; the remaining columns,
    in index order, complete the unitary from a QR factorization of
    [fixed columns | identity].
    """
    check_completeness(superoperators(meas))
    n, mu, n2 = _dilation_dims(meas)
    dim = n * mu * n2

    blocks = np.zeros((n, mu, n2, n), dtype=complex)  # [r, j, alpha, r']
    for j, (weights, kraus) in enumerate(meas):
        if len(kraus) > n2:
            raise InvalidMeasurement("an outcome map has more than N^2 Kraus terms")
        for alpha, (w, c) in enumerate(zip(weights, kraus)):
            blocks[:, j, alpha, :] = np.sqrt(w) * c
    fixed = blocks.reshape(dim, n)

    q, r = np.linalg.qr(np.hstack([fixed, np.eye(dim)]))
    # The fixed columns are orthonormal, so r[:n, :n] is diagonal with unit
    # moduli; undoing those phases makes q[:, :n] reproduce them.
    phases = np.diag(r)[:n]
    q[:, :n] *= phases / np.abs(phases)
    fixed_positions = np.arange(n) * (mu * n2)
    w_mat = np.empty((dim, dim), dtype=complex)
    w_mat[:, fixed_positions] = q[:, :n]
    w_mat[:, np.setdiff1d(np.arange(dim), fixed_positions)] = q[:, n:]
    validate_unitary(w_mat)
    return w_mat, (mu, n2)


def measure_generalized_via_dilation(joint: np.ndarray, dim_env: int, meas, outcome: int) -> tuple[float, np.ndarray]:
    """Outcome probability and collapsed joint state via the dilation + von Neumann route.

    The system factor of the (system x environment) joint state meets two
    ancillas in |0, 0>; the dilation unitary acts on system x ancillas, the
    first ancilla is read out and both are traced out.  The full space is
    ordered (system, ancillas, environment), so the unitary is W (x) 1.
    """
    n, mu, n2 = _dilation_dims(meas)
    w_mat, _ = build_dilation(meas)
    ancilla = np.zeros((mu * n2, mu * n2), dtype=complex)
    ancilla[0, 0] = 1.0  # |0,0><0,0|
    joint4 = np.asarray(joint, dtype=complex).reshape(n, dim_env, n, dim_env)
    dim = n * mu * n2 * dim_env
    full = np.einsum("rasb,jk->rjaskb", joint4, ancilla).reshape(dim, dim)
    big_w = tensor(w_mat, np.eye(dim_env))
    chi = big_w @ full @ dagger(big_w)
    # Von Neumann readout of the first ancilla, then trace out both ancillas.
    blocks = chi.reshape(n, mu, n2, dim_env, n, mu, n2, dim_env)
    selected = blocks[:, outcome, :, :, :, outcome, :, :]
    unnormalized = np.einsum("rxasxb->rasb", selected).reshape(n * dim_env, n * dim_env)
    prob = float(np.trace(unnormalized).real)
    return prob, unnormalized / prob
