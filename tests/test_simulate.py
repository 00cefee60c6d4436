"""Simulated records against the joint-space route and against the paper's first claim.

`simulate_scenario` reads every record off the process tensor M, and the
dataset's `oracle` reads the same M, so the bi-linear oracle comparison checks
only the inversion.  These tests keep M honest to the dynamics: every record's
gamma and gamma*Q must match the joint-space route of tests/helpers.py, which
applies the label's operation to the system factor of gamma0, conjugates by U
and traces out the environment.
"""

import numpy as np
import pytest

from helpers import partial_trace_sys, prepare_joint, rand_density, rand_unitary, random_measurement, run_joint, va_spec
from procmap.dynamics import ProcessSpec, dynamical_map_fixed_env
from procmap.linear_tomo import apply_linear_map
from procmap.records import TWELVE_STATE_LABELS, state_of_label
from procmap.scenarios import Scenario, demo_scenario_config, operation_of_label, parse_scenario, simulate_scenario

METHODS = ("stochastic", "rotation_only", "measurement", "generalized")
MIXED_BLOCH = np.array([0.3, -0.2, 0.4])


def random_scenario(rng, method: str, spec: ProcessSpec) -> Scenario:
    generalized = method == "generalized"
    return Scenario(
        name=method,
        spec=spec,
        t=0.0,
        protocol="verify12",
        prep_method=method,
        measurement=random_measurement(rng, len(TWELVE_STATE_LABELS)) if generalized else None,
        generalized_labels=tuple(rng.permutation(TWELVE_STATE_LABELS)) if generalized else (),
        mixed_bloch=MIXED_BLOCH if method == "measurement" else None,
    )


def assert_records_match_joint_route(sc: Scenario) -> None:
    dataset = simulate_scenario(sc)
    labels = TWELVE_STATE_LABELS + (("mixed",) if sc.mixed_bloch is not None else ())
    assert [rec.label for rec in dataset.records] == list(labels)
    for rec in dataset.records:
        joint = prepare_joint(sc.spec.gamma0, operation_of_label(sc, rec.label), label=rec.label)
        assert abs(rec.gamma - joint.gamma) <= 1e-12, rec.label
        assert np.max(np.abs(rec.gamma * rec.output - joint.gamma * run_joint(sc.spec, joint))) <= 1e-12, rec.label


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dim_env", [2, 3, 64])
def test_records_match_the_joint_space_route(dim_env, method):
    rng = np.random.default_rng([dim_env, METHODS.index(method)])
    spec = ProcessSpec(rand_unitary(rng, 2 * dim_env), rand_density(rng, 2 * dim_env))
    assert_records_match_joint_route(random_scenario(rng, method, spec))


@pytest.mark.parametrize("eta", [1e-6, 1e-9])
def test_nearly_excluded_records_match_the_joint_space_route(eta):
    # gamma0 = (1 - eta) rho(-d) (x) 1/2 + eta 1/4 gives the d+ outcome probability eta / 2.
    rng = np.random.default_rng(80)
    u = va_spec().u
    for direction in "123456":
        rho = state_of_label(f"{direction}-")
        gamma0 = (1.0 - eta) * np.kron(rho, 0.5 * np.eye(2)) + eta * np.eye(4) / 4.0
        sc = random_scenario(rng, "measurement", ProcessSpec(u, gamma0))
        assert_records_match_joint_route(sc)


def assert_stochastic_records_follow_the_fixed_environment_map(sc: Scenario) -> None:
    lam = dynamical_map_fixed_env(sc.spec.u, partial_trace_sys(sc.spec.gamma0))
    for rec in simulate_scenario(sc).records:
        assert rec.gamma == 1.0, rec.label
        assert np.max(np.abs(rec.output - apply_linear_map(lam, state_of_label(rec.label)))) <= 1e-12, rec.label


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
    assert_stochastic_records_follow_the_fixed_environment_map(random_scenario(rng, "stochastic", spec))
