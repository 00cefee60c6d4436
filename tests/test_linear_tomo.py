import math

import numpy as np
import pytest

from helpers import (
    T_DEMO,
    brute_force_output,
    closed_form_lambda_m,
    closed_form_lambda_s,
    compute_duals,
    measured_records,
    rand_density,
    stochastic_records,
    va_spec,
)
from procmap.dynamics import heisenberg_hamiltonian, unitary_from_hamiltonian, ProcessSpec
from procmap.linear_tomo import (
    NotAFrame,
    apply_linear_map,
    map_diagnostics,
    reconstruct_linear_map,
)
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    bloch_vector,
    hermiticity_residual,
    state_from_bloch,
    tensor,
)
from procmap.records import LINEAR4_LABELS, Dataset

CHOI_IDENTITY = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)

EQ1_INPUTS = [
    state_from_bloch([-1, 0, 0]),
    state_from_bloch([1, 0, 0]),
    state_from_bloch([0, 1, 0]),
    state_from_bloch([0, 0, 1]),
]


def test_duals_of_standard_projections():
    # Textbook duals of the four-projection frame.
    frame = compute_duals(EQ1_INPUTS)
    expected = [
        0.5 * (IDENTITY_2 - SIGMA_1 - SIGMA_2 - SIGMA_3),
        0.5 * (IDENTITY_2 + SIGMA_1 - SIGMA_2 - SIGMA_3),
        SIGMA_2,
        SIGMA_3,
    ]
    for dual, want in zip(frame.duals, expected):
        assert np.max(np.abs(dual - want)) < 1e-12
    assert frame.biorthogonality_residual() < 1e-12


def test_matrix_units_are_self_dual():
    units = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    frame = compute_duals(units)
    for dual, unit in zip(frame.duals, units):
        assert np.max(np.abs(dual - unit)) < 1e-13


def test_duals_of_mixed_state_frame():
    inputs = [
        0.5 * (IDENTITY_2 + 0.5 * SIGMA_3),
        0.5 * (IDENTITY_2 - 0.5 * SIGMA_3),
        0.5 * (IDENTITY_2 + 0.5 * SIGMA_1),
        0.5 * (IDENTITY_2 + 0.3 * SIGMA_2),
    ]
    frame = compute_duals(inputs)
    assert frame.biorthogonality_residual() < 1e-10


def test_duals_reject_dependent_inputs():
    with pytest.raises(NotAFrame):
        compute_duals([EQ1_INPUTS[0]] * 4)
    with pytest.raises(NotAFrame):
        compute_duals(EQ1_INPUTS[:3])


def test_identity_process_reconstructs_choi_form():
    lam = reconstruct_linear_map(Dataset(("0", "1", "2", "3"), EQ1_INPUTS, EQ1_INPUTS, [1.0] * 4))
    assert np.max(np.abs(lam - CHOI_IDENTITY)) < 1e-12
    assert hermiticity_residual(lam) < 1e-12


def test_reconstruct_lambda_s_golden():
    for t in (0.0, T_DEMO, math.pi / 3):
        spec = va_spec(t=t)
        records = stochastic_records(spec, LINEAR4_LABELS)
        lam = reconstruct_linear_map(records)
        assert np.max(np.abs(lam - closed_form_lambda_s(t))) < 1e-12


def test_reconstruct_lambda_m_golden():
    spec = va_spec()
    records = measured_records(spec, LINEAR4_LABELS)
    lam = reconstruct_linear_map(records)
    want = closed_form_lambda_m(T_DEMO, 0.5, 0.3)
    assert np.max(np.abs(lam - want)) < 1e-12
    # spot-check the displayed imaginary off-diagonal: entry (0,1) = i c S^2 / 2 = 0.05i
    assert abs(lam[0, 1] - 0.05j) < 1e-12


def test_reconstruction_reproduces_training_records():
    spec = va_spec()
    for records in (measured_records(spec, LINEAR4_LABELS), stochastic_records(spec, LINEAR4_LABELS)):
        lam = reconstruct_linear_map(records)
        for rho, out in zip(records.inputs, records.outputs):
            assert np.max(np.abs(apply_linear_map(lam, rho) - out)) < 1e-10


def test_apply_identity_map():
    lam = CHOI_IDENTITY
    rng = np.random.default_rng(31)
    for _ in range(5):
        rho = rand_density(rng, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - rho)) < 1e-14


def test_apply_lambda_s_shrinks_bloch():
    lam = closed_form_lambda_s(T_DEMO)
    out = apply_linear_map(lam, state_from_bloch([0, -1, 0]))
    assert np.max(np.abs(out - state_from_bloch([0, -0.5, 0]))) < 1e-12


def test_lambda_m_mispredicts_held_out_input():
    # The linear fit predicts (0.1, -0.5, -0.1) for the held-out 2- input while
    # the true output is (-0.3, -0.5, -0.3): a 0.4 Bloch gap.
    spec = va_spec()
    lam = reconstruct_linear_map(measured_records(spec, LINEAR4_LABELS))
    predicted = apply_linear_map(lam, state_from_bloch([0, -1, 0]))
    assert np.max(np.abs(bloch_vector(predicted) - np.array([0.1, -0.5, -0.1]))) < 1e-12
    true_out = measured_records(spec, ["2-"]).outputs[0]
    assert np.max(np.abs(bloch_vector(true_out) - np.array([-0.3, -0.5, -0.3]))) < 1e-12
    gap = np.max(np.abs(bloch_vector(predicted) - bloch_vector(true_out)))
    assert abs(gap - 0.4) < 1e-12


def test_stochastic_map_consistent_with_dynamics():
    spec = va_spec()
    lam = reconstruct_linear_map(stochastic_records(spec, LINEAR4_LABELS))
    rng = np.random.default_rng(32)
    for _ in range(100):
        rho = rand_density(rng, 2)
        direct = brute_force_output(spec.u, tensor(rho, 0.5 * IDENTITY_2), 2, 2)
        assert np.max(np.abs(apply_linear_map(lam, rho) - direct)) < 1e-10


def test_diagnostics_choi_identity():
    diag = map_diagnostics(CHOI_IDENTITY)
    assert abs(diag["min_eigenvalue"]) < 1e-12
    assert abs(diag["eigenvalues"][-1] - 2.0) < 1e-12
    assert abs(diag["trace"] - 2.0) < 1e-12


def test_diagnostics_lambda_s():
    diag = map_diagnostics(closed_form_lambda_s(T_DEMO))
    assert np.allclose(diag["eigenvalues"], [0.25, 0.25, 0.25, 1.25], atol=1e-12)
    assert diag["min_eigenvalue"] >= -1e-12

