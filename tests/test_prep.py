import json

import numpy as np
import pytest

from helpers import (
    build_dilation,
    measure_generalized_via_dilation,
    mixed_preparation_measurement,
    partial_trace_env,
    pin,
    prepare_dense,
    prepare_projective,
    prepare_stochastic,
    rand_density,
    rand_unitary,
    va_spec,
)
from procmap import jsonio, prep
from procmap.dynamics import ProcessSpec
from procmap.prep import (
    GeneralizedMeasurement,
    InvalidMeasurement,
    OutcomeMap,
    ZeroProbabilityOutcome,
    perpendicular_ket,
    prepare_generalized,
    rotation_between,
)
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    bloch_vector,
    ket_from_projector,
    partial_trace_sys,
    state_from_bloch,
    tensor,
)
from procmap.records import MIXED_LABEL, TWELVE_STATE_LABELS, state_of_label
from procmap.scenarios import ZERO_KET, ZERO_STATE, Scenario, operation_of_label, parse_measurement

KET0 = np.array([1, 0], dtype=complex)
P3_PLUS = np.diag([1.0, 0.0]).astype(complex)


def random_measurement(rng, mu: int, dim: int = 2, max_kraus: int = 3) -> GeneralizedMeasurement:
    """Random valid measurement: normalize arbitrary Kraus sets to completeness."""
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
    return GeneralizedMeasurement(
        outcomes=tuple(
            OutcomeMap(weights=tuple(w for w, _ in maps), kraus=tuple(c @ inv_sqrt for _, c in maps))
            for maps in raw
        )
    )


# ---------------------------------------------------------------------------
# stochastic preparation
# ---------------------------------------------------------------------------

def test_stochastic_identity_rotation():
    rng = np.random.default_rng(5)
    pinned = tensor(P3_PLUS, rand_density(rng, 2))
    prepared = prepare_stochastic(pinned, IDENTITY_2)
    assert prepared.gamma == 1.0
    assert np.max(np.abs(prepared.joint - pinned)) == 0


def test_stochastic_hadamard_gives_plus_state():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    pinned = tensor(P3_PLUS, 0.5 * IDENTITY_2)
    prepared = prepare_stochastic(pinned, hadamard)
    expected = tensor(state_from_bloch([1, 0, 0]), 0.5 * IDENTITY_2)
    assert np.max(np.abs(prepared.joint - expected)) < 1e-12


def test_stochastic_x_rotation_moves_z_to_minus_y():
    # exp(-i sigma_1 pi/4) rotates the Bloch vector about x by +pi/2: z -> -y;
    # the +y target needs the opposite sign.
    v_minus = (np.cos(np.pi / 4) * IDENTITY_2 - 1j * np.sin(np.pi / 4) * SIGMA_1).astype(complex)
    v_plus = v_minus.conj().T
    pinned = tensor(P3_PLUS, 0.5 * IDENTITY_2)
    got_minus = prepare_stochastic(pinned, v_minus).joint
    got_plus = prepare_stochastic(pinned, v_plus).joint
    assert np.max(np.abs(got_minus - tensor(state_from_bloch([0, -1, 0]), 0.5 * IDENTITY_2))) < 1e-12
    assert np.max(np.abs(got_plus - tensor(state_from_bloch([0, 1, 0]), 0.5 * IDENTITY_2))) < 1e-12


def test_rotation_between_targets():
    rng = np.random.default_rng(6)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        target = state_from_bloch(v)
        rot = rotation_between(KET0, ket_from_projector(target))
        assert np.max(np.abs(rot @ P3_PLUS @ rot.conj().T - target)) < 1e-10
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    ket /= np.linalg.norm(ket)
    assert abs(np.vdot(ket, perpendicular_ket(ket))) < 1e-15


# ---------------------------------------------------------------------------
# projective preparation
# ---------------------------------------------------------------------------

def test_projective_uncorrelated():
    rng = np.random.default_rng(7)
    rho = rand_density(rng, 2)
    tau = rand_density(rng, 2)
    p = state_from_bloch([0, 0, 1])
    prepared = prepare_projective(tensor(rho, tau), 2, 2, p)
    assert abs(prepared.gamma - np.trace(p @ rho).real) < 1e-12
    assert np.max(np.abs(prepared.joint - tensor(p, tau))) < 1e-12


def test_projective_correlated_golden():
    # Measuring the correlated pair state pushes the correlation into the
    # environment: P(2,+) leaves tau = (1 + c/(1+a2) sigma_3)/2 behind.
    spec = va_spec()
    p = state_from_bloch([0, 1, 0])
    prepared = prepare_projective(spec.gamma0, 2, 2, p)
    assert abs(prepared.gamma - 0.75) < 1e-12
    tau = partial_trace_sys(prepared.joint)
    assert np.max(np.abs(tau - 0.5 * (IDENTITY_2 + 0.2 * SIGMA_3))) < 1e-12

    for bloch in ([0, 0, 1], [1, 0, 0], [-1, 0, 0]):
        prepared = prepare_projective(spec.gamma0, 2, 2, state_from_bloch(bloch))
        tau = partial_trace_sys(prepared.joint)
        assert np.max(np.abs(tau - 0.5 * IDENTITY_2)) < 1e-12


def test_projective_system_marginal_is_projector():
    spec = va_spec()
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = state_from_bloch(v)
        prepared = prepare_projective(spec.gamma0, 2, 2, p)
        assert np.max(np.abs(partial_trace_env(prepared.joint, 2, 2) - p)) < 1e-12


def test_projective_pair_completeness():
    spec = va_spec()
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        gp = prepare_projective(spec.gamma0, 2, 2, state_from_bloch(v)).gamma
        gm = prepare_projective(spec.gamma0, 2, 2, state_from_bloch(-v)).gamma
        assert abs(gp + gm - 1.0) < 1e-12


def test_projective_zero_probability():
    # System polarized exactly along +y: the -y outcome never occurs.
    gamma0 = 0.25 * (np.eye(4) + tensor(SIGMA_2, IDENTITY_2))
    with pytest.raises(ZeroProbabilityOutcome):
        prepare_projective(gamma0, 2, 2, state_from_bloch([0, -1, 0]))


def test_projective_rejects_non_projector():
    spec = va_spec()
    with pytest.raises(ValueError):
        prepare_projective(spec.gamma0, 2, 2, 0.5 * IDENTITY_2)


# ---------------------------------------------------------------------------
# generalized measurements
# ---------------------------------------------------------------------------

def test_generalized_identity_map():
    meas = GeneralizedMeasurement(outcomes=(OutcomeMap(weights=(1.0,), kraus=(IDENTITY_2,)),))
    rng = np.random.default_rng(10)
    rho = rand_density(rng, 2)
    prepared = prepare_generalized(rho, meas.outcomes[0])
    assert abs(prepared.gamma - 1.0) < 1e-12
    assert np.max(np.abs(prepared.joint - rho)) < 1e-12


def test_generalized_projective_on_mixed():
    meas = GeneralizedMeasurement(
        outcomes=(
            OutcomeMap(weights=(1.0,), kraus=(np.diag([1.0, 0.0]).astype(complex),)),
            OutcomeMap(weights=(1.0,), kraus=(np.diag([0.0, 1.0]).astype(complex),)),
        )
    )
    for j, target in ((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))):
        prepared = prepare_generalized(0.5 * IDENTITY_2, meas.outcomes[j])
        assert abs(prepared.gamma - 0.5) < 1e-12
        assert np.max(np.abs(prepared.joint - target)) < 1e-12


def test_generalized_completeness_check():
    bad = GeneralizedMeasurement(
        outcomes=(OutcomeMap(weights=(0.5,), kraus=(IDENTITY_2,)),)
    )
    with pytest.raises(InvalidMeasurement):
        bad.validate()
    with pytest.raises(InvalidMeasurement):
        build_dilation(bad)


@pytest.mark.parametrize(
    "kraus_dim, gamma0_dim",
    [(3, 6), (2, 5), (1, 6)],
    ids=["3x3-kraus", "odd-gamma0", "1x1-kraus"],
)
def test_generalized_rejects_operators_that_do_not_fit_the_system(kraus_dim, gamma0_dim):
    # The system is a qubit: the Kraus operators must be 2x2 and gamma0 of even size.
    meas = GeneralizedMeasurement(outcomes=(OutcomeMap(weights=(1.0,), kraus=(np.eye(kraus_dim, dtype=complex),)),))
    meas.validate()
    with pytest.raises(InvalidMeasurement, match="2x2 on a square base state of even size"):
        prepare_generalized(np.eye(gamma0_dim) / gamma0_dim, meas.outcomes[0])


def test_primitive_rejects_an_operation_without_kraus_operators():
    with pytest.raises(InvalidMeasurement, match="2x2 on a square base state"):
        prepare_generalized(np.eye(4) / 4, OutcomeMap(weights=(), kraus=()))


def test_generalized_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        meas = random_measurement(rng, int(rng.integers(1, 5)))
        gamma0 = rand_density(rng, 4)
        total = sum(prepare_generalized(gamma0, meas.outcomes[j]).gamma for j in range(meas.num_outcomes))
        assert abs(total - 1.0) < 1e-10


def test_generalized_json_roundtrip():
    rng = np.random.default_rng(12)
    meas = random_measurement(rng, 3)
    obj = {
        "outcomes": [
            {"weights": list(outcome.weights), "kraus": [jsonio.matrix_to_json(c) for c in outcome.kraus]}
            for outcome in meas.outcomes
        ]
    }
    back = parse_measurement(json.loads(jsonio.dumps(obj)))
    assert back.completeness_residual() < 1e-12
    for a, b in zip(meas.outcomes, back.outcomes):
        assert a.weights == b.weights
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)


def test_nan_weight_fails_validation():
    meas = GeneralizedMeasurement(outcomes=(OutcomeMap(weights=(float("nan"),), kraus=(IDENTITY_2,)),))
    with pytest.raises(InvalidMeasurement, match="nan"):
        meas.validate()


def test_prepare_generalized_pin_to_mixed():
    # Kraus {X, sqrt(1 - X^2)} realizes the bi-linear process equation at a
    # mixed operator X: outcome 0 yields (X x 1) gamma0 (X x 1) / gamma.
    spec = va_spec()
    x = state_from_bloch([0.5, 0.0, 0.0])
    vals, vecs = np.linalg.eigh(x)
    rest = (vecs * np.sqrt(1.0 - vals**2)) @ vecs.conj().T
    meas = GeneralizedMeasurement(
        outcomes=(
            OutcomeMap(weights=(1.0,), kraus=(x,)),
            OutcomeMap(weights=(1.0,), kraus=(rest,)),
        )
    )
    meas.validate()
    prepared = prepare_generalized(spec.gamma0, meas.outcomes[0])
    big_x = tensor(x, IDENTITY_2)
    expected = big_x @ spec.gamma0 @ big_x
    gamma = np.trace(expected).real
    assert abs(prepared.gamma - gamma) < 1e-12
    assert np.max(np.abs(prepared.joint - expected / gamma)) < 1e-12


# ---------------------------------------------------------------------------
# the one preparation primitive against the routes it replaced
# ---------------------------------------------------------------------------

MIXED_BLOCH = np.array([0.3, -0.2, 0.4])


def oracle_scenario(rng, method: str, gamma0: np.ndarray, dim_env: int) -> Scenario:
    spec = ProcessSpec(rand_unitary(rng, 2 * dim_env), gamma0)
    generalized = method == "generalized"
    return Scenario(
        name=method,
        spec=spec,
        t=0.0,
        protocol="verify12",
        prep_method=method,
        measurement=random_measurement(rng, len(TWELVE_STATE_LABELS)) if generalized else None,
        # A shuffled order, so that the label -> outcome lookup is checked too.
        generalized_labels=tuple(rng.permutation(TWELVE_STATE_LABELS)) if generalized else (),
        mixed_bloch=MIXED_BLOCH if method == "measurement" else None,
    )


def oracle_preparation(sc: Scenario, label: str, pinned: np.ndarray):
    """The retired route of `label`, and whether it must match bit for bit.

    Stochastic preparation was pin-then-rotate; the one replacement operation
    that replaced it rounds differently, so it is compared within 1e-15.
    """
    gamma0, dim_env = sc.spec.gamma0, sc.spec.dim_env
    if sc.prep_method == "generalized":
        return prepare_dense(gamma0, dim_env, sc.measurement.outcomes[sc.generalized_labels.index(label)]), False
    if label == MIXED_LABEL:
        return prepare_dense(gamma0, dim_env, mixed_preparation_measurement(state_from_bloch(MIXED_BLOCH)).outcomes[0]), False
    target = state_of_label(label)
    if sc.prep_method == "measurement":
        return prepare_projective(gamma0, 2, dim_env, target, label=label), True
    v = rotation_between(ZERO_KET, ket_from_projector(target))
    if sc.prep_method == "stochastic":
        return prepare_stochastic(pinned, v), False
    return prepare_stochastic(gamma0, v), True


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_primitive_matches_the_retired_routes(dim_env):
    rng = np.random.default_rng(60 + dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    pinned = pin(gamma0, ZERO_STATE)
    for method in ("stochastic", "rotation_only", "measurement", "generalized"):
        sc = oracle_scenario(rng, method, gamma0, dim_env)
        for label in TWELVE_STATE_LABELS + ((MIXED_LABEL,) if sc.mixed_bloch is not None else ()):
            got = prepare_generalized(gamma0, operation_of_label(sc, label), label=label)
            want, exact = oracle_preparation(sc, label, pinned)
            if exact:
                assert got.joint.tobytes() == want.joint.tobytes(), (method, label)
                assert got.gamma == want.gamma, (method, label)
            else:
                assert np.max(np.abs(got.joint - want.joint)) < 1e-15, (method, label)
                assert abs(got.gamma - want.gamma) < 1e-15, (method, label)


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_stochastic_labels_prepare_the_projector_times_the_environment_marginal(dim_env):
    # {|t><0|, |t><1|} replaces the system's state by P = |t><t| and leaves Tr_S gamma0 behind.
    rng = np.random.default_rng(70 + dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    sc = oracle_scenario(rng, "stochastic", gamma0, dim_env)
    for label in TWELVE_STATE_LABELS:
        prepared = prepare_generalized(gamma0, operation_of_label(sc, label))
        assert prepared.gamma == 1.0, label
        assert np.max(np.abs(prepared.joint - pin(gamma0, state_of_label(label)))) < 1e-15, label


def test_trace_preserving_operation_keeps_gamma_one_exactly():
    rng = np.random.default_rng(15)
    joint = rand_density(rng, 4)
    v = rand_unitary(rng, 2)
    prepared = prepare_generalized(joint, OutcomeMap(weights=(1.0,), kraus=(v,)))
    assert prepared.gamma == 1.0
    assert prepared.joint.tobytes() == prep.conjugate_system(v, joint).tobytes()


def test_primitive_zero_probability():
    # System polarized exactly along +y: the -y outcome never occurs.
    gamma0 = 0.25 * (np.eye(4) + tensor(SIGMA_2, IDENTITY_2))
    operation = OutcomeMap(weights=(1.0,), kraus=(state_from_bloch([0, -1, 0]),))
    with pytest.raises(ZeroProbabilityOutcome, match="6-"):
        prepare_generalized(gamma0, operation, label="6-")


def test_factorization_cross_check_runs_for_rank_one_projectors_only(monkeypatch):
    calls = []

    def broken_trace(joint):
        calls.append(joint.shape)
        return np.zeros((len(joint) // 2,) * 2, dtype=complex)

    monkeypatch.setattr(prep, "partial_trace_sys", broken_trace)
    gamma0 = va_spec().gamma0
    for kraus in ((state_from_bloch([0.5, 0, 0]),), (np.diag([1.0, 0.0]), np.diag([0.0, 0.5]))):
        prepare_generalized(gamma0, OutcomeMap(weights=(1.0,) * len(kraus), kraus=kraus))
    assert calls == []
    with pytest.raises(ValueError, match="P \\(x\\) tau"):
        prepare_generalized(gamma0, OutcomeMap(weights=(0.5,), kraus=(state_of_label("2+"),)))
    assert calls == [(4, 4)]


def test_outcome_map_rejects_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        OutcomeMap(weights=(-0.25,), kraus=(IDENTITY_2,))


def test_outcome_effect_is_the_weighted_sum_of_kraus_products():
    c = np.array([[0.5, 0.25j], [0.0, 1.0]])
    outcome = OutcomeMap(weights=(0.5, 2.0), kraus=(SIGMA_1, c))
    assert np.array_equal(outcome.effect(), 0.5 * IDENTITY_2 + 2.0 * (c.conj().T @ c))
    complete = mixed_preparation_measurement(np.diag([0.25, 0.5]))
    assert np.abs(sum(o.effect() for o in complete.outcomes) - IDENTITY_2).max() < 1e-15


def test_rotation_between_rejects_unnormalized_kets():
    with pytest.raises(ValueError, match="not unitary"):
        rotation_between(KET0, 2.0 * KET0)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilation_single_trivial_outcome_embeds():
    meas = GeneralizedMeasurement(outcomes=(OutcomeMap(weights=(1.0,), kraus=(IDENTITY_2,)),))
    w, (mu, n2) = build_dilation(meas)
    assert (mu, n2) == (1, 4)
    for rp in range(2):
        col = w[:, rp * mu * n2]
        expected = np.zeros(8, dtype=complex)
        expected[rp * mu * n2] = 1.0  # |r',0,0> -> |r',0,0>
        assert np.max(np.abs(col - expected)) < 1e-12


def test_dilation_preserves_orthonormality():
    rng = np.random.default_rng(13)
    meas = random_measurement(rng, 3)
    w, (mu, n2) = build_dilation(meas)
    cols = [w[:, rp * mu * n2] for rp in range(2)]
    for i in range(2):
        for j in range(2):
            assert abs(np.vdot(cols[i], cols[j]) - (1.0 if i == j else 0.0)) < 1e-12


def test_dilation_matches_von_neumann():
    meas = GeneralizedMeasurement(
        outcomes=(
            OutcomeMap(weights=(1.0,), kraus=(np.diag([1.0, 0.0]).astype(complex),)),
            OutcomeMap(weights=(1.0,), kraus=(np.diag([0.0, 1.0]).astype(complex),)),
        )
    )
    rng = np.random.default_rng(14)
    rho = rand_density(rng, 2)
    for j in range(2):
        prob, post = measure_generalized_via_dilation(rho, 1, meas, j)
        born = np.trace(rho @ np.diag([1.0 - j, float(j)])).real
        assert abs(prob - born) < 1e-12
        assert np.max(np.abs(post - np.diag([1.0 - j, float(j)]))) < 1e-10


def test_dilation_route_equivalence_50_random():
    # The dilation acts on the system factor of a joint state, so it checks
    # prepare_generalized, the route simulation runs, with an environment too.
    rng = np.random.default_rng(2024)
    for dim_env in (1, 2, 3):
        for _ in range(50):
            meas = random_measurement(rng, int(rng.integers(1, 5)))
            gamma0 = rand_density(rng, 2 * dim_env)
            w, _ = build_dilation(meas)
            assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) < 1e-12
            for j in range(meas.num_outcomes):
                prepared = prepare_generalized(gamma0, meas.outcomes[j])
                prob, post = measure_generalized_via_dilation(gamma0, dim_env, meas, j)
                assert abs(prepared.gamma - prob) < 1e-12
                assert np.max(np.abs(prepared.joint - post)) < 1e-12
