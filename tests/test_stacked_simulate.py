"""`simulate_scenario` as one stacked program against the per-label loop it replaced.

`tests/helpers.reference_simulate` builds each record's S from its Kraus form and calls
`prepare_generalized` and `run_process` once per label on a single S.  The stacked
program must give the same bytes for every preparation method, protocol and
environment size, and `prepare_generalized` and `run_process` must treat any leading
batch shape as a stack of independent records.
"""

import numpy as np
import pytest

from helpers import rand_density, rand_unitary, random_scenario, reference_simulate, va_spec
from procmap.dynamics import (
    ProcessSpec,
    ZeroProbabilityOutcome,
    build_M_from_dynamics,
    prepare_generalized,
    run_process,
    superoperator,
)
from procmap.records import TWELVE_STATE_LABELS, state_of_label
from procmap.scenarios import DEMO_NAMES, demo_scenario_config, parse_scenario, simulate_scenario

METHODS = ("stochastic", "rotation_only", "measurement", "generalized")
PROTOCOLS = ("linear4", "bilinear9", "verify12")


def assert_same_bytes(sc, measurement=None) -> None:
    got, want = simulate_scenario(sc), reference_simulate(sc, measurement)
    assert got.labels == want.labels
    for field in ("inputs", "outputs", "gammas"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("dim_env", [1, 2, 3])
def test_simulate_scenario_is_the_per_label_loop_bit_for_bit(dim_env, protocol, method):
    # Generalized labels are shuffled against their outcomes; a measurement scenario adds the mixed record.
    rng = np.random.default_rng([dim_env, PROTOCOLS.index(protocol), METHODS.index(method)])
    spec = ProcessSpec(rand_unitary(rng, 2 * dim_env), rand_density(rng, 2 * dim_env))
    assert_same_bytes(*random_scenario(rng, method, spec, protocol))


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demos_simulate_as_the_per_label_loop_bit_for_bit(name):
    assert_same_bytes(parse_scenario(demo_scenario_config(name)))


def test_any_leading_batch_shape_is_a_stack_of_records():
    spec = va_spec()
    m = build_M_from_dynamics(spec)
    s = np.array([superoperator((1.0,), (state_of_label(label),)) for label in TWELVE_STATE_LABELS])
    gammas = prepare_generalized(spec.gamma0, s, label=TWELVE_STATE_LABELS)
    outputs = run_process(m, s, gammas)
    grid = s.reshape(3, 4, 4, 4)
    assert prepare_generalized(spec.gamma0, grid, label=TWELVE_STATE_LABELS).tobytes() == gammas.tobytes()
    assert run_process(m, grid, gammas.reshape(3, 4)).tobytes() == outputs.tobytes()
    for i, label in enumerate(TWELVE_STATE_LABELS):
        assert prepare_generalized(spec.gamma0, s[i], label=label) == gammas[i], label
        assert run_process(m, s[i], gammas[i]).tobytes() == outputs[i].tobytes(), label


def test_a_stack_names_its_first_zero_probability_record_in_c_order():
    # The system pinned to |0>: a projection onto |1> (3-) never occurs.
    gamma0 = np.kron(np.diag([1.0, 0.0]), 0.5 * np.eye(2))
    states = ("3+", "1+", "3-", "2-", "3-", "1-")
    s = np.array([superoperator((1.0,), (state_of_label(label),)) for label in states]).reshape(2, 3, 4, 4)
    names = ("a", "b", "c", "d", "e", "f")
    with pytest.raises(ZeroProbabilityOutcome, match="preparation c has"):
        prepare_generalized(gamma0, s, label=names)
    with pytest.raises(ZeroProbabilityOutcome, match="preparation e has"):
        prepare_generalized(gamma0, s[1], label=names[3:])
