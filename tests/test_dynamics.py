import math

import numpy as np
import pytest

from helpers import (
    T_DEMO,
    brute_force_output,
    closed_form_lambda_s,
    rand_density,
    rand_unitary,
    reference_dynamical_map,
    va_spec,
)
from procmap.dynamics import (
    ProcessSpec,
    correlated_pair_state,
    dynamical_map_fixed_env,
    heisenberg_hamiltonian,
    run_process,
    unitary_from_hamiltonian,
)
from procmap.linear_tomo import apply_linear_map
from procmap.prep import PreparedState, prepare_projective, prepare_stochastic
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
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


def test_correlated_pair_state_valid_and_invalid():
    validate_density_matrix(correlated_pair_state([0, 0.5, 0], 0.3))
    with pytest.raises(ValueError):
        correlated_pair_state([0, 0.9, 0], 0.5)  # pushes an eigenvalue negative


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


def test_unitary_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_from_hamiltonian(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)


def test_pinned_plus_state_output():
    # At t = pi/8 the exchange coupling shrinks the Bloch vector by cos^2(pi/4) = 1/2.
    u = unitary_from_hamiltonian(heisenberg_hamiltonian(), T_DEMO)
    joint = tensor(state_from_bloch([1, 0, 0]), 0.5 * IDENTITY_2)
    spec = ProcessSpec(2, 2, u, tensor(0.5 * IDENTITY_2, 0.5 * IDENTITY_2))
    out = run_process(spec, PreparedState(joint=joint, gamma=1.0))
    assert np.max(np.abs(out - state_from_bloch([0.5, 0, 0]))) < 1e-12


def test_identity_dynamics_with_projective_prep():
    rng = np.random.default_rng(21)
    gamma0 = tensor(rand_density(rng, 2), rand_density(rng, 2))
    spec = ProcessSpec(2, 2, np.eye(4, dtype=complex), gamma0)
    p = state_from_bloch([0, 0, 1])
    prepared = prepare_projective(gamma0, 2, 2, p)
    out = run_process(spec, prepared)
    assert np.max(np.abs(out - p)) < 1e-12


def test_measurement_prep_outputs_golden():
    # Outputs of the correlated-pair example at t = pi/8, a2 = 0.5, c23 = 0.3.
    spec = va_spec()
    expected = {
        (1, 0, 0): [0.5, 0, 0],
        (-1, 0, 0): [-0.5, 0, 0],
        (0, 1, 0): [-0.1, 0.5, 0.1],
        (0, -1, 0): [-0.3, -0.5, -0.3],
        (0, 0, 1): [0, 0, 0.5],
    }
    for bloch_in, bloch_out in expected.items():
        prepared = prepare_projective(spec.gamma0, 2, 2, state_from_bloch(bloch_in))
        out = run_process(spec, prepared)
        assert np.max(np.abs(bloch_vector(out) - np.asarray(bloch_out))) < 1e-12
        # cross-check against the loop-based pipeline oracle
        oracle = brute_force_output(spec.u, prepared.joint, 2, 2)
        assert np.max(np.abs(out - oracle)) < 1e-13


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_run_process_matches_loop_oracle(dim_env):
    rng = np.random.default_rng(40 + dim_env)
    d = 2 * dim_env
    spec = ProcessSpec(2, dim_env, rand_unitary(rng, d), rand_density(rng, d))
    for _ in range(3):
        joint = rand_density(rng, d)
        out = run_process(spec, PreparedState(joint=joint, gamma=1.0))
        assert np.max(np.abs(out - brute_force_output(spec.u, joint, 2, dim_env))) < 1e-13


def test_run_process_output_is_state():
    rng = np.random.default_rng(22)
    for _ in range(10):
        spec = ProcessSpec(2, 2, rand_unitary(rng, 4), rand_density(rng, 4))
        prepared = PreparedState(joint=rand_density(rng, 4), gamma=1.0)
        out = run_process(spec, prepared)
        validate_density_matrix(out)


def test_run_process_linear_in_joint():
    rng = np.random.default_rng(23)
    spec = ProcessSpec(2, 2, rand_unitary(rng, 4), rand_density(rng, 4))
    j1, j2 = rand_density(rng, 4), rand_density(rng, 4)
    alpha = 0.37
    mixed = run_process(spec, PreparedState(joint=alpha * j1 + (1 - alpha) * j2, gamma=1.0))
    split = alpha * run_process(spec, PreparedState(joint=j1, gamma=1.0)) + (
        1 - alpha
    ) * run_process(spec, PreparedState(joint=j2, gamma=1.0))
    assert np.max(np.abs(mixed - split)) < 1e-12


def test_fixed_env_map_identity():
    lam = dynamical_map_fixed_env(np.eye(4, dtype=complex), 0.5 * IDENTITY_2)
    assert np.max(np.abs(lam.mat - CHOI_IDENTITY)) < 1e-14


def test_fixed_env_map_swap_is_constant():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    rng = np.random.default_rng(24)
    tau = rand_density(rng, 2)
    lam = dynamical_map_fixed_env(swap, tau)
    for _ in range(5):
        rho = rand_density(rng, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - tau)) < 1e-12


def test_fixed_env_map_matches_closed_form():
    for t in (0.0, T_DEMO, math.pi / 3):
        u = unitary_from_hamiltonian(heisenberg_hamiltonian(), t)
        lam = dynamical_map_fixed_env(u, 0.5 * IDENTITY_2)
        assert np.max(np.abs(lam.mat - closed_form_lambda_s(t))) < 1e-12


def test_fixed_env_map_matches_brute_force():
    rng = np.random.default_rng(25)
    u = rand_unitary(rng, 4)
    tau = rand_density(rng, 2)
    lam = dynamical_map_fixed_env(u, tau)
    for _ in range(10):
        rho = rand_density(rng, 2)
        direct = brute_force_output(u, tensor(rho, tau), 2, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - direct)) < 1e-12


@pytest.mark.parametrize("dim_env", [1, 2, 4])
def test_fixed_env_map_matches_matrix_unit_loop(dim_env):
    rng = np.random.default_rng(26 + dim_env)
    u = rand_unitary(rng, 2 * dim_env)
    tau = rand_density(rng, dim_env)
    lam = dynamical_map_fixed_env(u, tau)
    assert np.max(np.abs(lam.mat - reference_dynamical_map(u, tau))) < 1e-13
