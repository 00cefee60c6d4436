import json
import re
import numpy as np
import pytest

from helpers import (
    BLOCH_BY_LABEL,
    MIXED_BLOCH,
    build_dilation,
    completeness_residual,
    effect,
    joint_of,
    ket_from_projector,
    kraus_of_label,
    kraus_superoperator,
    measure_generalized_via_dilation,
    mixed_preparation_measurement,
    partial_trace_env,
    partial_trace_sys,
    perpendicular_ket,
    pin,
    prepare_dense,
    prepare_projective,
    prepare_stochastic,
    rand_density,
    rand_unitary,
    random_measurement,
    random_scenario,
    rotation_between,
    superoperators,
    va_spec,
)
from procmap import jsonio
from procmap.dynamics import (
    InvalidMeasurement,
    ProcessSpec,
    ZeroProbabilityOutcome,
    check_completeness,
    prepare_generalized,
    superoperator,
)
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    bloch_vector,
    state_from_bloch,
    tensor,
)
from procmap.records import MIXED_LABEL, PROTOCOL_LABELS, TWELVE_STATE_LABELS, ket_of_label, state_of_label
from procmap.scenarios import Scenario, demo_scenario_config, parse_measurement, parse_scenario

KET0 = np.array([1, 0], dtype=complex)
P3_PLUS = np.diag([1.0, 0.0]).astype(complex)


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
    s = superoperator((1.0,), (IDENTITY_2,))
    rng = np.random.default_rng(10)
    rho = rand_density(rng, 2)
    gamma = prepare_generalized(rho, s)
    assert abs(gamma - 1.0) < 1e-12
    assert np.max(np.abs(joint_of(s, gamma, rho) - rho)) < 1e-12


def test_generalized_projective_on_mixed():
    meas = superoperators(
        (((1.0,), (np.diag([1.0, 0.0]).astype(complex),)), ((1.0,), (np.diag([0.0, 1.0]).astype(complex),)))
    )
    for j, target in ((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))):
        gamma = prepare_generalized(0.5 * IDENTITY_2, meas[j])
        assert abs(gamma - 0.5) < 1e-12
        assert np.max(np.abs(joint_of(meas[j], gamma, 0.5 * IDENTITY_2) - target)) < 1e-12


def test_generalized_completeness_check():
    bad = (((0.5,), (IDENTITY_2,)),)
    with pytest.raises(InvalidMeasurement):
        check_completeness(superoperators(bad))
    with pytest.raises(InvalidMeasurement):
        build_dilation(bad)
    with pytest.raises(InvalidMeasurement, match="outcomes"):
        check_completeness(superoperators(()))


@pytest.mark.parametrize(
    "kraus_dim, gamma0_dim",
    [(3, 6), (2, 5), (1, 6)],
    ids=["3x3-kraus", "odd-gamma0", "1x1-kraus"],
)
def test_generalized_rejects_operators_that_do_not_fit_the_system(kraus_dim, gamma0_dim):
    # The system is a qubit: an operation's S must be 4x4, from 2x2 Kraus operators, and gamma0 of even size.
    s = superoperator((1.0,), (np.eye(kraus_dim, dtype=complex),))
    with pytest.raises(InvalidMeasurement, match="4x4 superoperator on a square base state of even size"):
        prepare_generalized(np.eye(gamma0_dim) / gamma0_dim, s)


def test_primitive_rejects_an_operation_without_kraus_operators():
    with pytest.raises(InvalidMeasurement, match="at least one operator"):
        superoperator((), ())
    with pytest.raises(InvalidMeasurement, match="one weight per Kraus operator"):
        superoperator((1.0, 1.0), (IDENTITY_2,))


def test_generalized_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        meas = superoperators(random_measurement(rng, int(rng.integers(1, 5))))
        gamma0 = rand_density(rng, 4)
        total = sum(prepare_generalized(gamma0, s) for s in meas)
        assert abs(total - 1.0) < 1e-10


def test_generalized_json_roundtrip():
    rng = np.random.default_rng(12)
    meas = random_measurement(rng, 3)
    obj = {
        "outcomes": [
            {"weights": list(weights), "kraus": [jsonio.matrix_to_json(c) for c in kraus]} for weights, kraus in meas
        ]
    }
    back = parse_measurement(json.loads(jsonio.dumps(obj)))
    assert check_completeness(back) < 1e-12
    # Every weight and Kraus operator survives the round trip bit for bit, so every S does too.
    assert back.tobytes() == superoperators(meas).tobytes()


def test_nan_weight_fails_validation():
    with pytest.raises(InvalidMeasurement, match="nan"):
        check_completeness(superoperators((((float("nan"),), (IDENTITY_2,)),)))


def test_prepare_generalized_pin_to_mixed():
    # Kraus {X, sqrt(1 - X^2)} realizes the bi-linear process equation at a
    # mixed operator X: outcome 0 yields (X x 1) gamma0 (X x 1) / gamma.
    spec = va_spec()
    x = state_from_bloch([0.5, 0.0, 0.0])
    vals, vecs = np.linalg.eigh(x)
    rest = (vecs * np.sqrt(1.0 - vals**2)) @ vecs.conj().T
    meas = superoperators((((1.0,), (x,)), ((1.0,), (rest,))))
    check_completeness(meas)
    got = prepare_generalized(spec.gamma0, meas[0])
    big_x = tensor(x, IDENTITY_2)
    expected = big_x @ spec.gamma0 @ big_x
    gamma = np.trace(expected).real
    assert abs(got - gamma) < 1e-12
    assert np.max(np.abs(joint_of(meas[0], got, spec.gamma0) - expected / gamma)) < 1e-12


# ---------------------------------------------------------------------------
# the one preparation primitive against the routes it replaced
# ---------------------------------------------------------------------------

def oracle_preparation(sc: Scenario, meas, label: str, pinned: np.ndarray):
    """The retired joint-space route of `label`: pin-then-rotate, rotation, projection or a dense map."""
    gamma0, dim_env = sc.spec.gamma0, sc.spec.dim_env
    if sc.prep_method == "generalized":
        return prepare_dense(gamma0, dim_env, meas[label])
    if label == MIXED_LABEL:
        return prepare_dense(gamma0, dim_env, mixed_preparation_measurement(state_from_bloch(MIXED_BLOCH))[0])
    target = state_of_label(label)
    if sc.prep_method == "measurement":
        return prepare_projective(gamma0, 2, dim_env, target, label=label)
    v = rotation_between(KET0, ket_from_projector(target))
    return prepare_stochastic(pinned if sc.prep_method == "stochastic" else gamma0, v)


@pytest.mark.parametrize("label", TWELVE_STATE_LABELS)
def test_ket_table_gives_the_projector_in_its_gauge_and_both_operations(label):
    x, y, z = BLOCH_BY_LABEL[label]
    projector = 0.5 * (IDENTITY_2 + x * SIGMA_1 + y * SIGMA_2 + z * SIGMA_3)
    ket = ket_of_label(label)
    assert np.max(np.abs(np.outer(ket, ket.conj()) - projector)) < 1e-15
    # The gauge: the first component of largest magnitude (equal within 1e-15 is a tie) is real and positive.
    pivot = int(np.argmax(np.abs(ket) >= np.abs(ket).max() - 1e-15))
    assert ket[pivot].imag == 0.0 and ket[pivot].real > 0.0, ket
    sc = parse_scenario(demo_scenario_config("imperfect-pin"))  # rotation-only preparation
    (v,) = kraus_of_label(sc, label)[1]
    assert np.max(np.abs(v.conj().T @ v - IDENTITY_2)) < 1e-15
    assert np.max(np.abs(v @ KET0 - ket)) == 0.0
    # The library's S of the rotation is V (x) conj(V): unitary, and it takes |0><0| to |t><t|.
    rotation = sc.operations[sc.labels.index(label)]
    assert np.max(np.abs(rotation.conj().T @ rotation - np.eye(4))) < 1e-15
    assert np.max(np.abs(rotation[:, 0].reshape(2, 2) - projector)) < 1e-15
    stochastic = parse_scenario(demo_scenario_config("stochastic-heisenberg")).operations[sc.labels.index(label)]
    assert np.max(np.abs(stochastic - np.outer(projector.reshape(-1), IDENTITY_2.reshape(-1)))) < 1e-15


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_primitive_matches_the_retired_routes(dim_env):
    rng = np.random.default_rng(60 + dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    pinned = pin(gamma0, P3_PLUS)
    for method in ("stochastic", "rotation_only", "measurement", "generalized"):
        sc, meas = random_scenario(rng, method, ProcessSpec(rand_unitary(rng, 2 * dim_env), gamma0))
        for label, s in zip(sc.labels, sc.operations):
            # The superoperator route rounds differently from every retired route, so none matches bit for bit.
            gamma = prepare_generalized(gamma0, s, label=label)
            want = oracle_preparation(sc, meas, label, pinned)
            assert np.max(np.abs(joint_of(s, gamma, gamma0) - want.joint)) < 1e-15, (method, label)
            assert abs(gamma - want.gamma) < 1e-15, (method, label)


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_stochastic_labels_prepare_the_projector_times_the_environment_marginal(dim_env):
    # {|t><0|, |t><1|} replaces the system's state by P = |t><t| and leaves Tr_S gamma0 behind.
    rng = np.random.default_rng(70 + dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    sc, _ = random_scenario(rng, "stochastic", ProcessSpec(rand_unitary(rng, 2 * dim_env), gamma0))
    for label, s in zip(sc.labels, sc.operations):
        assert prepare_generalized(gamma0, s) == 1.0, label
        assert np.max(np.abs(joint_of(s, 1.0, gamma0) - pin(gamma0, state_of_label(label)))) < 1e-15, label


def test_trace_preserving_operation_keeps_gamma_one_exactly():
    rng = np.random.default_rng(15)
    joint = rand_density(rng, 4)
    v = rand_unitary(rng, 2)
    s = superoperator((1.0,), (v,))
    assert prepare_generalized(joint, s) == 1.0
    assert s.tobytes() == tensor(v, v.conj()).tobytes()


def test_primitive_zero_probability():
    # System polarized exactly along +y: the -y outcome never occurs.
    gamma0 = 0.25 * (np.eye(4) + tensor(SIGMA_2, IDENTITY_2))
    s = superoperator((1.0,), (state_from_bloch([0, -1, 0]),))
    with pytest.raises(ZeroProbabilityOutcome, match="6-"):
        prepare_generalized(gamma0, s, label="6-")


def test_outcome_map_rejects_negative_weights():
    with pytest.raises(InvalidMeasurement, match="nonnegative"):
        superoperator((-0.25,), (IDENTITY_2,))


def test_outcome_effect_is_the_weighted_sum_of_kraus_products():
    # One outcome's completeness residual is max |E - 1| of its effect E = sum_a w_a C_a'C_a.
    c = np.array([[0.5, 0.25j], [0.0, 1.0]])
    outcome = ((0.5, 2.0), (SIGMA_1, c))
    assert np.array_equal(effect(outcome), 0.5 * IDENTITY_2 + 2.0 * (c.conj().T @ c))
    residual = f"residual {np.abs(effect(outcome) - IDENTITY_2).max():.3e}"
    with pytest.raises(InvalidMeasurement, match=re.escape(residual)):
        check_completeness(superoperators((outcome,)))
    complete = superoperators(mixed_preparation_measurement(np.diag([0.25, 0.5])))
    assert check_completeness(complete) < 1e-15


@pytest.mark.parametrize("dim_env", [1, 2, 64])
def test_operation_of_label_is_the_kraus_form_superoperator_bit_for_bit(dim_env):
    # The library builds each S once from the same Kraus operators; np.kron term by term must give the same bits.
    rng = np.random.default_rng(75 + dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    for method in ("stochastic", "rotation_only", "measurement", "generalized"):
        sc, meas = random_scenario(rng, method, ProcessSpec(rand_unitary(rng, 2 * dim_env), gamma0))
        for label, s in zip(sc.labels, sc.operations):
            want = kraus_superoperator(kraus_of_label(sc, label, meas))
            assert s.tobytes() == want.tobytes(), (method, label)


@pytest.mark.parametrize("method", ["stochastic", "rotation_only", "measurement", "generalized"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_LABELS))
def test_parsed_record_table_is_the_kraus_form_reference_bit_for_bit(protocol, method):
    # One record per protocol label in protocol order, then a measurement scenario's mixed record; a generalized
    # measurement's outcomes are listed in a shuffled label order, which parse_scenario puts in protocol order.
    sc, meas = random_scenario(np.random.default_rng(85), method, va_spec(), protocol)
    mixed = (MIXED_LABEL,) if method == "measurement" else ()
    assert sc.labels == PROTOCOL_LABELS[protocol] + mixed
    assert meas is None or list(meas) != list(sc.labels)  # the outcomes' own label order is shuffled
    want = np.array([kraus_superoperator(kraus_of_label(sc, label, meas)) for label in sc.labels])
    assert (sc.operations.shape, sc.operations.tobytes()) == (want.shape, want.tobytes())
    inputs = np.array([state_of_label(label) for label in PROTOCOL_LABELS[protocol]]
                      + [state_from_bloch(MIXED_BLOCH) for _ in mixed])
    assert (sc.inputs.shape, sc.inputs.tobytes()) == (inputs.shape, inputs.tobytes())


def test_stacked_completeness_residual_matches_the_kraus_form():
    rng = np.random.default_rng(16)
    for _ in range(50):
        meas = random_measurement(rng, int(rng.integers(1, 13)))
        assert abs(check_completeness(superoperators(meas)) - completeness_residual(meas)) < 1e-15


def test_rotation_between_rejects_unnormalized_kets():
    with pytest.raises(ValueError, match="not unitary"):
        rotation_between(KET0, 2.0 * KET0)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilation_single_trivial_outcome_embeds():
    meas = (((1.0,), (IDENTITY_2,)),)
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
    meas = (((1.0,), (np.diag([1.0, 0.0]).astype(complex),)), ((1.0,), (np.diag([0.0, 1.0]).astype(complex),)))
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
            for j, s in enumerate(superoperators(meas)):
                gamma = prepare_generalized(gamma0, s)
                prob, post = measure_generalized_via_dilation(gamma0, dim_env, meas, j)
                assert abs(gamma - prob) < 1e-12
                assert np.max(np.abs(joint_of(s, gamma, gamma0) - post)) < 1e-12
