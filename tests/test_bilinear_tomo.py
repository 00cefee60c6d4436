import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    T_DEMO,
    basis_element,
    brute_force_output,
    measured_records,
    partial_trace_env,
    rand_density,
    rand_unit_bloch,
    rand_unitary,
    reference_element_table,
    reference_predict_output,
    reference_raw_M,
    va_spec,
)
from procmap import jsonio
from procmap.bilinear_tomo import (
    CROSS_PAIRS,
    BilinearProcessMap,
    MElementTable,
    MixedWithoutUnitUnit,
    ZeroGamma,
    build_M_from_dynamics,
    element_table_from_map,
    predict_output,
    solve_M_elements,
)
from procmap.dynamics import ProcessSpec
from procmap.qstate import (
    IDENTITY_2,
    bloch_vector,
    hermiticity_residual,
    is_projector,
    state_from_bloch,
    tensor,
)
from procmap.records import NINE_STATE_LABELS, MissingRecord, TomographyRecord, fit, state_of_label


def loop_build_m(u: np.ndarray, gamma0: np.ndarray, na: int, nb: int) -> np.ndarray:
    """Index-by-index construction of the process tensor; the einsum oracle."""
    m = np.zeros((na,) * 6, dtype=complex)
    for r in range(na):
        for s in range(na):
            for x in range(na):
                for p in range(na):
                    for y in range(na):
                        for q in range(na):
                            acc = 0.0 + 0.0j
                            for a in range(nb):
                                for b in range(nb):
                                    for e in range(nb):
                                        acc += (
                                            u[r * nb + e, p * nb + a]
                                            * gamma0[x * nb + a, y * nb + b]
                                            * np.conj(u[s * nb + e, q * nb + b])
                                        )
                            m[r, s, x, p, y, q] = acc
    return m


def test_build_m_matches_loop_oracle():
    rng = np.random.default_rng(41)
    u = rand_unitary(rng, 4)
    gamma0 = rand_density(rng, 4)
    bmap = build_M_from_dynamics(ProcessSpec(u, gamma0))
    oracle = loop_build_m(u, gamma0, 2, 2)
    assert np.max(np.abs(bmap.m - oracle)) < 1e-13


@pytest.mark.parametrize("nb", [1, 2, 8, 32])
def test_build_m_matches_einsum_oracle(nb):
    rng = np.random.default_rng(46 + nb)
    spec = ProcessSpec(rand_unitary(rng, 2 * nb), rand_density(rng, 2 * nb))
    bmap = build_M_from_dynamics(spec)
    assert np.max(np.abs(bmap.m - reference_raw_M(spec))) < 1e-13
    assert np.array_equal(np.conj(bmap.m), bmap.m.transpose(1, 0, 4, 5, 2, 3))


def test_build_m_identity_unitary_collapse():
    # With U = 1 the tensor collapses to delta(r,r') delta(s,s') (Tr_env gamma0).
    rng = np.random.default_rng(42)
    gamma0 = rand_density(rng, 4)
    bmap = build_M_from_dynamics(ProcessSpec(np.eye(4, dtype=complex), gamma0))
    reduced = partial_trace_env(gamma0, 2, 2)
    for r in range(2):
        for s in range(2):
            for x in range(2):
                for p in range(2):
                    for y in range(2):
                        for q in range(2):
                            want = reduced[x, y] if (r == p and s == q) else 0.0
                            assert abs(bmap.m[r, s, x, p, y, q] - want) < 1e-13


def test_trace_is_system_dimension_not_one():
    # The full-index trace equals dimA * Tr[gamma0] for any unitary; the
    # published unit-trace claim drops a factor of the system dimension
    # (see the decisions ledger).
    rng = np.random.default_rng(43)
    for _ in range(20):
        spec = ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4))
        bmap = build_M_from_dynamics(spec)
        assert abs(np.einsum("rrxpxp->", bmap.m) - 2.0) < 1e-10


def test_hermiticity_holds_exactly_as_stored():
    rng = np.random.default_rng(44)
    for _ in range(20):
        spec = ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4))
        bmap = build_M_from_dynamics(spec)
        assert np.array_equal(np.conj(bmap.m), bmap.m.transpose(1, 0, 4, 5, 2, 3))


def test_apply_bilinear_identity_unitary():
    # U = 1 reduces the bi-linear form to P rho P with rho the system marginal.
    rng = np.random.default_rng(45)
    gamma0 = rand_density(rng, 4)
    bmap = build_M_from_dynamics(ProcessSpec(np.eye(4, dtype=complex), gamma0))
    reduced = partial_trace_env(gamma0, 2, 2)
    for _ in range(5):
        p = state_from_bloch(rand_unit_bloch(rng))
        got = basis_element(bmap, p, p)
        want = p @ reduced @ p
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(np.trace(got) - np.trace(p @ reduced)) < 1e-12


def test_apply_bilinear_expands_cross_terms():
    # <aA+bB|M|aA+bB> = a^2<A|M|A> + ab<A|M|B> + ab<B|M|A> + b^2<B|M|B>
    spec = va_spec()
    bmap = build_M_from_dynamics(spec)
    a_mat = state_from_bloch([1, 0, 0])
    b_mat = state_from_bloch([0, 0, 1])
    alpha, beta = 0.7, -0.4
    combo = alpha * a_mat + beta * b_mat
    expanded = (
        alpha**2 * basis_element(bmap, a_mat, a_mat)
        + alpha * beta * basis_element(bmap, a_mat, b_mat)
        + alpha * beta * basis_element(bmap, b_mat, a_mat)
        + beta**2 * basis_element(bmap, b_mat, b_mat)
    )
    assert np.max(np.abs(basis_element(bmap, combo, combo) - expanded)) < 1e-12


def test_apply_bilinear_golden_outputs():
    spec = va_spec()
    bmap = build_M_from_dynamics(spec)
    gq = basis_element(bmap, state_of_label("2+"), state_of_label("2+"))
    gamma = np.trace(gq).real
    assert abs(gamma - 0.75) < 1e-12
    assert np.max(np.abs(bloch_vector(gq / gamma) - np.array([-0.1, 0.5, 0.1]))) < 1e-12

    gq = basis_element(bmap, state_of_label("2-"), state_of_label("2-"))
    gamma = np.trace(gq).real
    assert abs(gamma - 0.25) < 1e-12
    assert np.max(np.abs(bloch_vector(gq / gamma) - np.array([-0.3, -0.5, -0.3]))) < 1e-12


def test_bilinear_form_equals_projected_dynamics():
    # <P|M|P> = Tr_env[U (P x 1) gamma0 (P x 1) U'] for every projector P.
    rng = np.random.default_rng(46)
    spec = ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4))
    bmap = build_M_from_dynamics(spec)
    for _ in range(20):
        p = state_from_bloch(rand_unit_bloch(rng))
        big_p = tensor(p, IDENTITY_2)
        want = brute_force_output(spec.u, big_p @ spec.gamma0 @ big_p, 2, 2)
        assert np.max(np.abs(basis_element(bmap, p, p) - want)) < 1e-10


def test_nine_state_inputs_golden():
    states = [state_of_label(label) for label in NINE_STATE_LABELS]
    assert len(states) == 9
    for state in states:
        assert is_projector(state, tol=1e-14)
    by_label = dict(zip(NINE_STATE_LABELS, states))
    assert np.allclose(bloch_vector(by_label["4+"]), [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)
    # the first six pair into orthogonal partners
    for d in "123":
        overlap = np.trace(by_label[f"{d}+"] @ by_label[f"{d}-"]).real
        assert abs(overlap) < 1e-14


def test_solve_elements_matches_direct_contractions():
    spec = va_spec()
    records = measured_records(spec, NINE_STATE_LABELS)
    table = solve_M_elements(records)
    direct = element_table_from_map(build_M_from_dynamics(spec))
    assert table.elements.shape == (9, 2, 2)
    assert np.max(np.abs(table.elements - direct.elements[:9])) < 1e-10
    assert table.unit_unit is None
    assert max(map(hermiticity_residual, table.elements)) < 1e-10


def test_solve_elements_identity_process_hand_algebra():
    # For U = 1, gamma0 = rho x tau:  Gamma Q = P rho P, so
    # D_j = 2(P+ rho P+ + P- rho P-), Y_j = 2(P+ rho P+ - P- rho P-).
    rng = np.random.default_rng(47)
    rho, tau = rand_density(rng, 2), rand_density(rng, 2)
    gamma0 = tensor(rho, tau)
    spec = ProcessSpec(np.eye(4, dtype=complex), gamma0)
    records = measured_records(spec, NINE_STATE_LABELS)
    table = solve_M_elements(records)
    axes = {1: [1, 0, 0], 2: [0, 1, 0], 3: [0, 0, 1]}
    for j, axis in axes.items():
        plus = state_from_bloch(axis)
        minus = state_from_bloch([-a for a in axis])
        d_want = 2.0 * (plus @ rho @ plus + minus @ rho @ minus)
        y_want = 2.0 * (plus @ rho @ plus - minus @ rho @ minus)
        assert np.max(np.abs(table.elements[j - 1] - d_want)) < 1e-12
        assert np.max(np.abs(table.elements[j + 2] - y_want)) < 1e-12


def test_cross_term_coefficient_form():
    # The solved cross term equals the -2(1 +/- sqrt2) weighted combination.
    spec = va_spec()
    records = {rec.label: rec for rec in measured_records(spec, NINE_STATE_LABELS)}
    table = solve_M_elements(records.values())
    sqrt2 = np.sqrt(2.0)
    for i, ((j, k), pair_label) in enumerate(zip(CROSS_PAIRS, ("4+", "5+", "6+"))):
        terms = -2.0 * (1.0 + sqrt2) * records[f"{j}+"].gamma * records[f"{j}+"].output
        terms = terms - 2.0 * (1.0 - sqrt2) * records[f"{j}-"].gamma * records[f"{j}-"].output
        terms = terms - 2.0 * (1.0 + sqrt2) * records[f"{k}+"].gamma * records[f"{k}+"].output
        terms = terms - 2.0 * (1.0 - sqrt2) * records[f"{k}-"].gamma * records[f"{k}-"].output
        terms = terms + 8.0 * records[pair_label].gamma * records[pair_label].output
        assert np.max(np.abs(table.elements[6 + i] - terms)) < 1e-12


def test_solve_elements_requires_all_labels():
    spec = va_spec()
    records = measured_records(spec, NINE_STATE_LABELS)
    with pytest.raises(MissingRecord):
        solve_M_elements(records[:-1])
    bad = [TomographyRecord(r.label, r.input, r.output, 0.0) for r in records]
    with pytest.raises(ZeroGamma):
        solve_M_elements(bad)


def test_predict_output_golden():
    spec = va_spec()
    table = solve_M_elements(measured_records(spec, NINE_STATE_LABELS))
    gamma, q = predict_output(table, [0, 1, 0])
    assert abs(gamma - 0.75) < 1e-12
    assert np.max(np.abs(bloch_vector(q) - np.array([-0.1, 0.5, 0.1]))) < 1e-12
    gamma, q = predict_output(table, [0, -1, 0])
    assert abs(gamma - 0.25) < 1e-12
    assert np.max(np.abs(bloch_vector(q) - np.array([-0.3, -0.5, -0.3]))) < 1e-12


def test_predict_matches_direct_route_100_random():
    spec = va_spec()
    table = solve_M_elements(measured_records(spec, NINE_STATE_LABELS))
    bmap = build_M_from_dynamics(spec)
    rng = np.random.default_rng(48)
    for _ in range(100):
        v = rand_unit_bloch(rng)
        p = state_from_bloch(v)
        gq = basis_element(bmap, p, p)
        gamma_direct = np.trace(gq).real
        gamma, q = predict_output(table, v)
        assert abs(gamma - gamma_direct) < 1e-9
        assert np.max(np.abs(bloch_vector(q) - bloch_vector(gq / gamma_direct))) < 1e-9


def test_predict_mixed_requires_unit_unit():
    spec = va_spec()
    table = solve_M_elements(measured_records(spec, NINE_STATE_LABELS))
    with pytest.raises(MixedWithoutUnitUnit):
        predict_output(table, [0.5, 0, 0])


def test_mixed_record_resolves_unit_unit():
    spec = va_spec()
    bmap = build_M_from_dynamics(spec)
    x = state_from_bloch([0.5, 0.0, 0.0])
    big_x = tensor(x, IDENTITY_2)
    gq = brute_force_output(spec.u, big_x @ spec.gamma0 @ big_x, 2, 2)
    gamma = np.trace(gq).real
    mixed = TomographyRecord("mixed", x, gq / gamma, gamma)
    table = solve_M_elements(measured_records(spec, NINE_STATE_LABELS), mixed_record=mixed)
    direct = element_table_from_map(bmap)
    assert np.max(np.abs(table.unit_unit - direct.unit_unit)) < 1e-10
    # and mixed predictions now agree with the raw bi-linear form
    rng = np.random.default_rng(49)
    for _ in range(20):
        v = rng.uniform(-0.5, 0.5, size=3)
        p = state_from_bloch(v)
        gq = basis_element(bmap, p, p)
        gamma_direct = np.trace(gq).real
        gamma, q = predict_output(table, v)
        assert abs(gamma - gamma_direct) < 1e-10
        assert np.max(np.abs(q - gq / gamma_direct)) < 1e-10


def test_element_table_json_roundtrip():
    spec = va_spec()
    table = element_table_from_map(build_M_from_dynamics(spec))
    obj = json.loads(jsonio.dumps(table.to_json()))
    assert list(obj) == ["D", "Y", "Z", "unit_unit"]
    assert list(obj["Z"]) == ["12", "13", "23"]
    mats = obj["D"] + obj["Y"] + [obj["Z"][f"{j}{k}"] for j, k in CROSS_PAIRS] + [obj["unit_unit"]]
    back = np.array([jsonio.matrix_from_json(m) for m in mats])
    assert np.array_equal(back, table.elements)
    assert "unit_unit" not in MElementTable(table.elements[:9]).to_json()


@pytest.mark.parametrize("nb", [1, 2, 8])
def test_stacked_table_matches_hand_oracle(nb):
    rng = np.random.default_rng(50 + nb)
    for _ in range(20):
        bmap = build_M_from_dynamics(ProcessSpec(rand_unitary(rng, 2 * nb), rand_density(rng, 2 * nb)))
        table = element_table_from_map(bmap)
        assert table.elements.shape == (10, 2, 2)
        assert np.max(np.abs(table.elements - reference_element_table(bmap).stacked())) < 1e-13
        assert max(map(hermiticity_residual, table.elements)) < 1e-13


@pytest.mark.parametrize("with_mixed", [False, True])
def test_solved_table_matches_hand_oracle(with_mixed):
    spec = va_spec()
    records = measured_records(spec, NINE_STATE_LABELS)
    mixed = None
    if with_mixed:
        x = state_from_bloch([0.5, 0.0, 0.0])
        big_x = tensor(x, IDENTITY_2)
        gq = brute_force_output(spec.u, big_x @ spec.gamma0 @ big_x, 2, 2)
        mixed = TomographyRecord("mixed", x, gq / np.trace(gq).real, np.trace(gq).real)
    table = solve_M_elements(records, mixed_record=mixed)
    # The hand algebra applied to the tensor the same degree-2 fit stands for.
    fitted = records + ([mixed] if with_mixed else [])
    m = fit(fitted, degree=2).coef.reshape((2,) * 6).transpose(4, 5, 0, 1, 2, 3)
    want = reference_element_table(BilinearProcessMap(m=m)).stacked()[: len(fitted)]
    assert table.elements.shape == (len(fitted), 2, 2)
    assert np.max(np.abs(table.elements - want)) < 1e-13


def test_predict_output_matches_hand_oracle():
    rng = np.random.default_rng(51)
    bmap = build_M_from_dynamics(ProcessSpec(rand_unitary(rng, 4), rand_density(rng, 4)))
    table = element_table_from_map(bmap)
    hand = reference_element_table(bmap)
    pure_table = MElementTable(table.elements[:9])
    pure_hand = replace(hand, unit_unit=None)
    mixed = [rng.uniform(-0.5, 0.5, size=3) for _ in range(20)]
    for v in [rand_unit_bloch(rng) for _ in range(100)] + mixed:
        cases = [(table, hand)] + ([(pure_table, pure_hand)] if abs(np.dot(v, v) - 1.0) < 1e-10 else [])
        for got_table, want_table in cases:
            gamma, q = predict_output(got_table, v)
            gamma_want, q_want = reference_predict_output(want_table, v)
            assert abs(gamma - gamma_want) < 1e-12
            assert np.max(np.abs(q - q_want)) < 1e-12
    with pytest.raises(MixedWithoutUnitUnit):
        predict_output(pure_table, mixed[0])
