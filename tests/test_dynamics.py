import math

import numpy as np
import pytest

from helpers import (
    T_DEMO,
    brute_force_output,
    closed_form_lambda_s,
    joint_of,
    partial_trace_sys,
    prepare_dense,
    rand_density,
    rand_unitary,
    reference_dynamical_map,
    reference_pair_state,
    va_spec,
)
from procmap.dynamics import (
    MAX_GAMMA,
    InvalidMeasurement,
    ProcessSpec,
    build_M_from_dynamics,
    correlated_pair_state,
    heisenberg_hamiltonian,
    prepare_generalized,
    run_process,
    superoperator,
    unitary_from_hamiltonian,
)
from procmap.linear_tomo import apply_linear_map
from procmap.records import TWELVE_STATE_LABELS, state_of_label
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
    SIGMA_3,
    bloch_vector,
    state_from_bloch,
    tensor,
    validate_density_matrix,
)

CHOI_IDENTITY = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def test_heisenberg_hamiltonian_matrix():
    h = heisenberg_hamiltonian()
    assert np.max(np.abs(h - h.conj().T)) == 0
    # eigenvalues: triplet +1 (x3), singlet -3
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-3, 1, 1, 1], atol=1e-12)


def test_correlated_pair_state_is_the_term_by_term_sum_bit_for_bit():
    # Zeros of either sign, negative and positive components, and sizes above 1 (unchecked operators).
    rng = np.random.default_rng(36)
    values = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-1.5, 1.5, 60)])
    for _ in range(12_000):
        bloch_a, c23 = tuple(rng.choice(values, 3).tolist()), float(rng.choice(values))  # floats, as parsed
        assert correlated_pair_state(bloch_a, c23).tobytes() == reference_pair_state(bloch_a, c23).tobytes()


def test_correlated_pair_state_valid_and_invalid():
    validate_density_matrix(correlated_pair_state([0, 0.5, 0], 0.3))
    not_a_state = correlated_pair_state([0, 0.9, 0], 0.5)  # unchecked: an eigenvalue is negative
    with pytest.raises(ValueError, match="gamma0 has negative eigenvalue"):
        ProcessSpec(u=np.eye(4, dtype=complex), gamma0=not_a_state)


def test_unitary_from_zero_hamiltonian():
    u = unitary_from_hamiltonian(np.zeros((4, 4)), 1.3)
    assert np.max(np.abs(u - np.eye(4))) < 1e-14


def test_unitary_time_composition():
    h = heisenberg_hamiltonian()
    u1 = unitary_from_hamiltonian(h, 0.3)
    u2 = unitary_from_hamiltonian(h, 0.9)
    u12 = unitary_from_hamiltonian(h, 1.2)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(4))) < 1e-12


def test_unitary_from_hamiltonian_golden():
    t = 0.7
    assert np.max(np.abs(unitary_from_hamiltonian(IDENTITY_2, t) - np.exp(-1j * t) * IDENTITY_2)) < 1e-15
    assert np.max(np.abs(unitary_from_hamiltonian(SIGMA_3, t) - np.diag(np.exp([-1j * t, 1j * t])))) < 1e-15
    # CHOI_IDENTITY / 2 is a projector, so exp(-i CHOI_IDENTITY t) = 1 + (exp(-2it) - 1) CHOI_IDENTITY / 2.
    want = np.eye(4) + (np.exp(-2j * t) - 1.0) * CHOI_IDENTITY / 2
    assert np.max(np.abs(unitary_from_hamiltonian(CHOI_IDENTITY, t) - want)) < 1e-15


def test_unitary_from_hamiltonian_matches_the_power_series():
    rng = np.random.default_rng(17)
    for d in (2, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h, t = a + a.conj().T, 0.1
        series, term = np.eye(d, dtype=complex), np.eye(d, dtype=complex)
        for n in range(1, 40):
            term = term @ (-1j * t * h) / n
            series = series + term
        u = unitary_from_hamiltonian(h, t)
        assert np.max(np.abs(u - series)) < 1e-13
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-13


def test_unitary_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_from_hamiltonian(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)


def random_operation(rng) -> tuple:
    """One Kraus operator, neither Hermitian nor unitary, scaled so that its effect is at most 1, in Kraus form."""
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (float(rng.uniform(0.2, 1.0)),), (c / np.linalg.norm(c, 2),)


def test_pinned_plus_state_output():
    # At t = pi/8 the exchange coupling shrinks the Bloch vector by cos^2(pi/4) = 1/2.
    u = unitary_from_hamiltonian(heisenberg_hamiltonian(), T_DEMO)
    spec = ProcessSpec(u, tensor(0.5 * IDENTITY_2, 0.5 * IDENTITY_2))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    replace = superoperator((1.0, 1.0), [np.outer(plus, e) for e in np.eye(2)])
    gamma = prepare_generalized(spec.gamma0, replace)
    pinned = tensor(state_from_bloch([1, 0, 0]), 0.5 * IDENTITY_2)
    assert np.max(np.abs(joint_of(replace, gamma, spec.gamma0) - pinned)) < 1e-15
    out = run_process(build_M_from_dynamics(spec), replace, gamma)
    assert np.max(np.abs(out - state_from_bloch([0.5, 0, 0]))) < 1e-12


def test_identity_dynamics_with_projective_prep():
    rng = np.random.default_rng(21)
    gamma0 = tensor(rand_density(rng, 2), rand_density(rng, 2))
    spec = ProcessSpec(np.eye(4, dtype=complex), gamma0)
    p = state_from_bloch([0, 0, 1])
    s = superoperator((1.0,), (p,))
    out = run_process(build_M_from_dynamics(spec), s, prepare_generalized(gamma0, s))
    assert np.max(np.abs(out - p)) < 1e-12


def test_measurement_prep_outputs_golden():
    # Outputs of the correlated-pair example at t = pi/8, a2 = 0.5, c23 = 0.3.
    spec = va_spec()
    m = build_M_from_dynamics(spec)
    expected = {
        (1, 0, 0): [0.5, 0, 0],
        (-1, 0, 0): [-0.5, 0, 0],
        (0, 1, 0): [-0.1, 0.5, 0.1],
        (0, -1, 0): [-0.3, -0.5, -0.3],
        (0, 0, 1): [0, 0, 0.5],
    }
    for bloch_in, bloch_out in expected.items():
        projector = superoperator((1.0,), (state_from_bloch(bloch_in),))
        gamma = prepare_generalized(spec.gamma0, projector)
        out = run_process(m, projector, gamma)
        assert np.max(np.abs(bloch_vector(out) - np.asarray(bloch_out))) < 1e-12
        # cross-check against the loop-based pipeline oracle
        oracle = brute_force_output(spec.u, joint_of(projector, gamma, spec.gamma0), 2, 2)
        assert np.max(np.abs(out - oracle)) < 1e-13


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_run_process_matches_loop_oracle(dim_env):
    rng = np.random.default_rng(40 + dim_env)
    d = 2 * dim_env
    spec = ProcessSpec(rand_unitary(rng, d), rand_density(rng, d))
    m = build_M_from_dynamics(spec)
    for _ in range(3):
        # The oracle forms every C x 1 densely, then conjugates by U and traces the environment by loops.
        operation = random_operation(rng)
        dense = prepare_dense(spec.gamma0, dim_env, operation)
        s = superoperator(*operation)
        out = run_process(m, s, prepare_generalized(spec.gamma0, s))
        assert np.max(np.abs(out - brute_force_output(spec.u, dense.joint, 2, dim_env))) < 1e-13


def test_run_process_output_is_state():
    rng = np.random.default_rng(22)
    for _ in range(10):
        spec = ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4))
        s = superoperator(*random_operation(rng))
        out = run_process(build_M_from_dynamics(spec), s, prepare_generalized(spec.gamma0, s))
        validate_density_matrix(out)


def test_run_process_linear_in_joint():
    # The prepared joint state is linear in S; mixing two trace-preserving S keeps gamma = 1.
    rng = np.random.default_rng(23)
    spec = ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4))
    m = build_M_from_dynamics(spec)
    s1, s2 = (superoperator((1.0,), (rand_unitary(rng, 2),)) for _ in range(2))
    assert prepare_generalized(spec.gamma0, s1) == prepare_generalized(spec.gamma0, s2) == 1.0
    alpha = 0.37
    mixed = run_process(m, alpha * s1 + (1 - alpha) * s2, 1.0)
    split = alpha * run_process(m, s1, 1.0) + (1 - alpha) * run_process(m, s2, 1.0)
    assert np.max(np.abs(mixed - split)) < 1e-12


def test_run_process_rejects_a_gamma_that_is_not_tr_s_m():
    # Tr(S M) is the preparation's probability; a record whose gamma disagrees beyond 1e-12 never leaves.
    spec = va_spec()
    m = build_M_from_dynamics(spec)
    s = superoperator((1.0,), (state_from_bloch([0, 1, 0]),))
    gamma = prepare_generalized(spec.gamma0, s)
    assert gamma == pytest.approx(0.75, abs=1e-15)
    run_process(m, s, gamma + 5e-13)
    with pytest.raises(ValueError, match=r"Tr\(S M\) = 7\.5"):
        run_process(m, s, gamma + 2e-12)


def test_stacked_run_process_checks_every_record():
    # One call checks Tr(S M) against each record's own gamma: record 7 alone off by 2e-12 fails the whole stack.
    spec = va_spec()
    m = build_M_from_dynamics(spec)
    s = np.array([superoperator((1.0,), (state_of_label(label),)) for label in TWELVE_STATE_LABELS])
    gammas = prepare_generalized(spec.gamma0, s, label=TWELVE_STATE_LABELS)
    assert run_process(m, s, gammas).shape == (12, 2, 2)
    nudged = gammas.copy()
    nudged[7] += 5e-13
    run_process(m, s, nudged)
    nudged[7] = gammas[7] + 2e-12
    with pytest.raises(ValueError, match=rf"differs from the preparation's gamma {nudged[7]:.6e}"):
        run_process(m, s, nudged)


def test_stacked_run_process_checks_every_output_is_hermitian():
    # rho -> rho sigma_1 keeps the trace real but not the hermiticity; as record 5 of 12 it fails the whole stack.
    spec = va_spec()
    m = build_M_from_dynamics(spec)
    s = np.array([superoperator((1.0,), (state_of_label(label),)) for label in TWELVE_STATE_LABELS])
    gammas = prepare_generalized(spec.gamma0, s, label=TWELVE_STATE_LABELS)
    s[5] = np.kron(IDENTITY_2, SIGMA_1)
    trace = np.einsum("rrxpyq,pqxy->", m, s[5].reshape(2, 2, 2, 2))
    assert abs(trace.imag) < 1e-15
    gammas[5] = trace.real
    with pytest.raises(ValueError, match="lost hermiticity"):
        run_process(m, s, gammas)


def test_fixed_env_map_identity():
    lam = reference_dynamical_map(np.eye(4, dtype=complex), 0.5 * IDENTITY_2)
    assert np.max(np.abs(lam - CHOI_IDENTITY)) < 1e-14


def test_fixed_env_map_swap_is_constant():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    rng = np.random.default_rng(24)
    tau = rand_density(rng, 2)
    lam = reference_dynamical_map(swap, tau)
    for _ in range(5):
        rho = rand_density(rng, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - tau)) < 1e-12


def test_fixed_env_map_matches_closed_form():
    for t in (0.0, T_DEMO, math.pi / 3):
        u = unitary_from_hamiltonian(heisenberg_hamiltonian(), t)
        lam = reference_dynamical_map(u, 0.5 * IDENTITY_2)
        assert np.max(np.abs(lam - closed_form_lambda_s(t))) < 1e-12


def test_fixed_env_map_matches_brute_force():
    rng = np.random.default_rng(25)
    u = rand_unitary(rng, 4)
    tau = rand_density(rng, 2)
    lam = reference_dynamical_map(u, tau)
    for _ in range(10):
        rho = rand_density(rng, 2)
        direct = brute_force_output(u, tensor(rho, tau), 2, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - direct)) < 1e-12


@pytest.mark.parametrize("dim_env", [1, 2, 4])
def test_fixed_env_map_matches_matrix_unit_loop(dim_env):
    rng = np.random.default_rng(26 + dim_env)
    u = rand_unitary(rng, 2 * dim_env)
    gamma0 = rand_density(rng, 2 * dim_env)
    tau = partial_trace_sys(gamma0)
    # The map read off M, whatever correlations gamma0 holds: Lambda[(r,p),(s,q)] = sum_x m[r,s,x,p,x,q].
    m = build_M_from_dynamics(ProcessSpec(u, gamma0))
    lam = np.einsum("rsxpxq->rpsq", m).reshape(4, 4)
    assert np.max(np.abs(lam - reference_dynamical_map(u, tau))) < 1e-13


@pytest.mark.parametrize("delta", [0.2e-12, 0.6e-12, 0.98e-12])
def test_nearly_trace_preserving_operation_passes_the_tr_s_m_check(delta):
    # E = 1 +- delta (1 + sigma_1) moves the probability of |+> by +-2 delta; gamma = 1.0 only while that stays
    # within half of UNITARY_TOL, so Tr(S M) never lands more than 1e-12 from gamma.  Past that, a gamma
    # above MAX_GAMMA is refused, as the dataset reader would refuse it.
    plus = state_from_bloch([1, 0, 0])
    spec = ProcessSpec(np.eye(4, dtype=complex), tensor(plus, 0.5 * IDENTITY_2))
    for sign in (1, -1):
        w, v = np.linalg.eigh(IDENTITY_2 + sign * delta * (IDENTITY_2 + SIGMA_1))
        s = superoperator((1.0,), ((v * np.sqrt(w)) @ v.conj().T,))
        if sign * 2 * delta > MAX_GAMMA - 1.0:
            with pytest.raises(InvalidMeasurement, match="above 1"):
                prepare_generalized(spec.gamma0, s)
            continue
        gamma = prepare_generalized(spec.gamma0, s)
        assert (gamma == 1.0) == (2 * delta <= 0.5e-12)
        assert np.max(np.abs(run_process(build_M_from_dynamics(spec), s, gamma) - plus)) < 1e-12
