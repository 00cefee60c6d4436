"""Simulated records against the joint-space route and against the paper's first claim.

`simulate_scenario` reads every record off the process tensor M, and the
dataset's `oracle` reads the same M, so the bi-linear oracle comparison checks
only the inversion.  These tests keep M honest to the dynamics: every record's
gamma and gamma*Q must match the joint-space route of tests/helpers.py, which
applies the label's operation to the system factor of gamma0, conjugates by U
and traces out the environment.  Finite-shot datasets must match the shot model
of tests/helpers.py applied record by record, draw for draw: one multinomial per
preparing measurement, over the outcomes its records name and one for the rest,
then one binomial per output axis.  Their sample covariance over many seeds must
match that model's analytic covariance (`shot_moments`).
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    kraus_of_label,
    partial_trace_sys,
    prepare_joint,
    rand_density,
    rand_unitary,
    random_scenario,
    reference_dynamical_map,
    reference_shot_dataset,
    run_joint,
    shot_moments,
    twelve_outcome_config,
    va_spec,
)
from procmap.dynamics import ProcessSpec
from procmap.linear_tomo import apply_linear_map
from procmap.qstate import bloch_vector
from procmap.records import TWELVE_STATE_LABELS, state_of_label
from procmap.scenarios import (
    DEMO_NAMES,
    Scenario,
    _degrade,
    demo_scenario_config,
    parse_scenario,
    simulate_scenario,
)

METHODS = ("stochastic", "rotation_only", "measurement", "generalized")


def assert_records_match_joint_route(sc: Scenario, meas=None) -> None:
    dataset = simulate_scenario(sc)
    assert dataset.labels == TWELVE_STATE_LABELS + (("mixed",) if sc.prep_method == "measurement" else ())
    for label, gamma, output in zip(dataset.labels, dataset.gammas, dataset.outputs):
        joint = prepare_joint(sc.spec.gamma0, kraus_of_label(sc, label, meas), label=label)
        assert abs(gamma - joint.gamma) <= 1e-12, label
        assert np.max(np.abs(gamma * output - joint.gamma * run_joint(sc.spec, joint))) <= 1e-12, label


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dim_env", [2, 3, 64])
def test_records_match_the_joint_space_route(dim_env, method):
    rng = np.random.default_rng([dim_env, METHODS.index(method)])
    spec = ProcessSpec(rand_unitary(rng, 2 * dim_env), rand_density(rng, 2 * dim_env))
    assert_records_match_joint_route(*random_scenario(rng, method, spec))


@pytest.mark.parametrize("eta", [1e-6, 1e-9])
def test_nearly_excluded_records_match_the_joint_space_route(eta):
    # gamma0 = (1 - eta) rho(-d) (x) 1/2 + eta 1/4 gives the d+ outcome probability eta / 2.
    rng = np.random.default_rng(80)
    u = va_spec().u
    for direction in "123456":
        rho = state_of_label(f"{direction}-")
        gamma0 = (1.0 - eta) * np.kron(rho, 0.5 * np.eye(2)) + eta * np.eye(4) / 4.0
        assert_records_match_joint_route(*random_scenario(rng, "measurement", ProcessSpec(u, gamma0)))


def assert_stochastic_records_follow_the_fixed_environment_map(sc: Scenario) -> None:
    lam = reference_dynamical_map(sc.spec.u, partial_trace_sys(sc.spec.gamma0))
    dataset = simulate_scenario(sc)
    assert (dataset.gammas == 1.0).all()
    for label, output in zip(dataset.labels, dataset.outputs):
        assert np.max(np.abs(output - apply_linear_map(lam, state_of_label(label)))) <= 1e-12, label


def test_stochastic_demo_is_the_fixed_environment_map():
    # The paper's first claim: stochastic preparation gives the linear map rho -> Tr_env[U (rho x tau) U'],
    # tau = Tr_S gamma0, whatever correlations gamma0 holds.
    demo = parse_scenario(demo_scenario_config("stochastic-heisenberg"))
    assert_stochastic_records_follow_the_fixed_environment_map(demo)


@pytest.mark.parametrize("dim_env", [2, 3])
def test_stochastic_records_are_the_fixed_environment_map_of_a_correlated_gamma0(dim_env):
    rng = np.random.default_rng(90 + dim_env)
    spec = ProcessSpec(rand_unitary(rng, 2 * dim_env), rand_density(rng, 2 * dim_env))
    tau = partial_trace_sys(spec.gamma0)
    rho = np.einsum("iaja->ij", spec.gamma0.reshape(2, dim_env, 2, dim_env))
    assert np.max(np.abs(spec.gamma0 - np.kron(rho, tau))) > 1e-2  # correlated, not a product
    assert_stochastic_records_follow_the_fixed_environment_map(random_scenario(rng, "stochastic", spec)[0])


@pytest.mark.parametrize("name", [*DEMO_NAMES, "generalized"])
def test_finite_shot_datasets_match_the_per_record_shot_model(name):
    # The degraded dataset is bit-identical to the exact one degraded record by record in
    # label order, the outcome probabilities drawn first; so is the generator's draw order.
    if name == "generalized":
        rng = np.random.default_rng(81)
        sc, _ = random_scenario(rng, "generalized", va_spec())
    else:
        sc = parse_scenario(demo_scenario_config(name))
    for seed in (0, 7):
        shot = replace(sc, shots=1000, seed=seed)
        got, want = simulate_scenario(shot), reference_shot_dataset(shot, simulate_scenario(sc))
        assert got.labels == want.labels
        for field in ("inputs", "outputs", "gammas"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (field, seed)


@pytest.mark.parametrize("name", [*DEMO_NAMES, "twelve-outcome"])
def test_shot_noise_has_the_covariance_of_one_multinomial_per_measurement(name):
    # 4,000 seeds at 1,000 shots: every mean and covariance entry of (gammas, output Bloch vectors) lies within
    # 5 standard errors of the model's, the errors of a covariance entry taken as for Gaussian data.
    config = twelve_outcome_config() if name == "twelve-outcome" else demo_scenario_config(name)
    sc = replace(parse_scenario(config), shots=1000)
    exact = simulate_scenario(replace(sc, shots=None))
    draws = []
    for seed in range(4000):
        gammas, outputs = _degrade(replace(sc, seed=seed), exact.gammas, exact.outputs)
        draws.append(np.concatenate([gammas, bloch_vector(outputs).ravel()]))
    draws = np.array(draws)
    mean, cov = shot_moments(sc, exact)
    n, var = len(draws), np.diag(cov)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / n) + 1e-12)
    sample = np.cov(draws, rowvar=False)
    assert np.all(np.abs(sample - cov) <= 5.0 * np.sqrt((np.outer(var, var) + cov**2) / n) + 1e-12)
