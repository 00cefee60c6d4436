"""What procmap keeps for one process across a sweep in t, and the positivity screen of the density check.

H's eigenbasis, gamma0's density check, a Bloch-form gamma0, a protocol's inputs and the gammas do not depend on
t; a sweep must write what a cold process writes, a failure must never be kept, and what is kept is read-only.
"""

import random

import numpy as np
import pytest

from helpers import PROCESS_CACHES
from procmap import dynamics, jsonio, scenarios
from procmap.cli import main
from procmap.dynamics import ProcessSpec, ZeroProbabilityOutcome, heisenberg_hamiltonian, unitary_from_hamiltonian
from procmap.qstate import STATE_TOL, array_key, validate_density_matrix
from procmap.scenarios import DEMO_NAMES, demo_scenario_config, parse_scenario, simulate_scenario


def test_a_sweep_in_t_writes_what_a_cold_process_writes(tmp_path):
    cases = [(demo, t, shots) for demo in DEMO_NAMES for t in (0.3, 0.8, 1.4) for shots in (None, 1000)]
    random.Random(5).shuffle(cases)

    def dataset(demo, t, shots, cold):
        for cache in PROCESS_CACHES if cold else ():
            cache.cache_clear()
        scenario, out = tmp_path / "scenario.json", tmp_path / "dataset.json"
        scenario.write_text(jsonio.dumps({**demo_scenario_config(demo), "t": t}))
        shot_args = [] if shots is None else ["--shots", str(shots), "--seed", "5"]
        assert main(["simulate", str(scenario), "--out", str(out), *shot_args]) == 0
        return out.read_bytes()

    warm = [dataset(*case, cold=False) for case in cases]
    for cache in (dynamics._eigenbasis, dynamics._checked_state, scenarios._bloch_state, scenarios._gammas):
        assert cache.cache_info().hits > 0, cache
    assert warm == [dataset(*case, cold=True) for case in cases]


def zero_probability_scenario() -> dict:
    """The measurement demo with its system pinned to |0>: outcome 3- never occurs."""
    return {**demo_scenario_config("measurement-correlated"), "gamma0": {"bloch_a": [0.0, 0.0, 1.0], "c23": 0.0}}


@pytest.mark.parametrize(
    "call, cache",
    [
        (lambda: unitary_from_hamiltonian(np.triu(np.ones((4, 4))), 1.0), dynamics._eigenbasis),
        (lambda: ProcessSpec(u=np.eye(4), gamma0=np.diag([0.5, 0.5 + 2 * STATE_TOL, 0.0, -2 * STATE_TOL])),
         dynamics._checked_state),
        (lambda: simulate_scenario(parse_scenario(zero_probability_scenario())), scenarios._gammas),
    ],
    ids=["non-hermitian-hamiltonian", "gamma0-eigenvalue-minus-2-tol", "zero-probability-preparation"],
)
def test_a_failure_is_never_kept(call, cache):
    simulate_scenario(parse_scenario(demo_scenario_config("imperfect-pin")))  # each cache holds a good process
    errors = []
    for _ in range(2):
        with pytest.raises((ValueError, ZeroProbabilityOutcome)) as caught:
            call()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert cache.cache_info().currsize == 1 and cache.cache_info().misses == 3, cache.cache_info()


def test_every_kept_array_is_read_only():
    for demo in DEMO_NAMES:
        config = demo_scenario_config(demo)
        sc = parse_scenario(config)
        simulate_scenario(sc)
        h = heisenberg_hamiltonian() if config["hamiltonian"] == "heisenberg" else jsonio.matrix_from_json(
            config["hamiltonian"])
        kept = [*dynamics._eigenbasis(*array_key(h)), scenarios._label_inputs(sc.labels[:12]),
                scenarios._gammas(array_key(sc.spec.gamma0), array_key(sc.operations), sc.labels)]
        if "bloch_a" in config["gamma0"]:
            kept.append(sc.spec.gamma0)  # the kept Bloch-form gamma0
        assert scenarios._gammas.cache_info().hits == DEMO_NAMES.index(demo) + 1
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0.0
    h = heisenberg_hamiltonian()
    h[0, 0] = 7.0  # a copy of the kept constant
    assert heisenberg_hamiltonian()[0, 0] == 1.0


@pytest.mark.parametrize("n", [4, 128])
@pytest.mark.parametrize("low", [0.0, -0.4, -0.99, -1.01, -2.0])
def test_positivity_screen_keeps_every_verdict(n, low):
    """A state of smallest eigenvalue `low` * STATE_TOL passes down to -STATE_TOL and is refused below it, with the
    message of the eigenvalue test alone."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.full(n, (1.0 - low * STATE_TOL) / (n - 1))
    w[0] = low * STATE_TOL
    rho = (q * w) @ q.conj().T
    smallest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
    assert abs(smallest - low * STATE_TOL) < 1e-3 * STATE_TOL
    if low >= -1.0:
        validate_density_matrix(rho)
    else:
        with pytest.raises(ValueError) as caught:
            validate_density_matrix(rho)
        assert str(caught.value) == f"density matrix has negative eigenvalue {smallest:.3e}"
