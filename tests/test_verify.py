import numpy as np
import pytest

from helpers import (
    bilinear_consistency_residuals,
    linear_sum_rule_residuals,
    measured_records,
    rand_density,
    stochastic_records,
    va_spec,
)
from procmap.dynamics import ProcessSpec
from procmap.qstate import SIGMA_1, bloch_vector, is_projector, state_from_bloch, tensor
from procmap.records import TWELVE_STATE_LABELS, MissingRecord, TomographyRecord, state_of_label
from procmap.verify import classify, gamma_completeness


def test_twelve_state_inputs_golden():
    states = [state_of_label(label) for label in TWELVE_STATE_LABELS]
    assert len(states) == 12
    by_label = dict(zip(TWELVE_STATE_LABELS, states))
    assert np.allclose(
        bloch_vector(by_label["6-"]), [0, -1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15
    )
    for state in states:
        assert is_projector(state, tol=1e-14)
    for d in "123456":
        overlap = np.trace(by_label[f"{d}+"] @ by_label[f"{d}-"]).real
        assert abs(overlap) < 1e-14


def test_input_sum_rules_hold_for_projectors():
    # The eight rules are identities of the input projectors themselves.
    records = [TomographyRecord(l, state_of_label(l), state_of_label(l), 1.0) for l in TWELVE_STATE_LABELS]
    residuals = linear_sum_rule_residuals(records)
    assert max(residuals.values()) < 1e-15


def test_stochastic_scenario_passes_sum_rules():
    records = stochastic_records(va_spec(), TWELVE_STATE_LABELS)
    residuals = linear_sum_rule_residuals(records)
    assert max(residuals.values()) < 1e-10


def test_measurement_scenario_breaks_sum_rules():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    residuals = linear_sum_rule_residuals(records)
    # Bloch gap 0.4 for the 2- rule shows up as 0.2 in matrix entries.
    assert abs(residuals["Q2-"] - 0.2) < 1e-12
    assert max(residuals.values()) >= 0.1


def test_identity_process_sum_rules():
    rng = np.random.default_rng(51)
    gamma0 = tensor(rand_density(rng, 2), rand_density(rng, 2))
    spec = ProcessSpec(np.eye(4, dtype=complex), gamma0)
    residuals = linear_sum_rule_residuals(measured_records(spec, TWELVE_STATE_LABELS))
    # uncorrelated identity process is linear on the prepared inputs
    assert max(residuals.values()) < 1e-12


def test_measurement_scenario_satisfies_bilinear_equations():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    residuals = bilinear_consistency_residuals(records)
    assert max(residuals.values()) < 1e-10


def test_stochastic_scenario_also_satisfies_bilinear_equations():
    # A linear process with unit probabilities passes the bi-linear check too,
    # which is why the classifier tests linearity first.
    records = stochastic_records(va_spec(), TWELVE_STATE_LABELS)
    residuals = bilinear_consistency_residuals(records)
    assert max(residuals.values()) < 1e-10


def test_corrupted_record_breaks_bilinear_equations():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    tampered = []
    for rec in records:
        if rec.label == "4-":
            bad = rec.output + 0.05 * SIGMA_1
            tampered.append(TomographyRecord(rec.label, rec.input, bad, rec.gamma))
        else:
            tampered.append(rec)
    residuals = bilinear_consistency_residuals(tampered)
    assert max(residuals.values()) >= 0.01


def test_gamma_completeness_exact():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    devs = gamma_completeness(records)
    assert max(abs(v) for v in devs.values()) < 1e-12


def test_classify_linear():
    report = classify(stochastic_records(va_spec(), TWELVE_STATE_LABELS), tol_linear=1e-10, tol_bilinear=1e-10)
    assert report.verdict == "Linear"
    assert max(report.linear_residuals.values()) <= 1e-10


def test_classify_bilinear():
    report = classify(measured_records(va_spec(), TWELVE_STATE_LABELS), tol_linear=1e-10, tol_bilinear=1e-10)
    assert report.verdict == "Bilinear"
    # The per-record misfit of the linear fit is 0.083 here; the hand rules
    # (checked in test_measurement_scenario_breaks_sum_rules) reach 0.2.
    assert max(report.linear_residuals.values()) >= 0.05
    assert max(report.bilinear_residuals.values()) <= 1e-10


def test_classify_neither_for_adversarial_records():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    tampered = []
    for rec in records:
        if rec.label in ("4-", "5-"):
            bad = rec.output + 0.05 * SIGMA_1
            tampered.append(TomographyRecord(rec.label, rec.input, bad, rec.gamma))
        else:
            tampered.append(rec)
    report = classify(tampered)
    assert report.verdict == "Neither"


def test_classify_requires_all_labels():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    with pytest.raises(MissingRecord):
        classify(records[:-1])


def test_residuals_invariant_under_pair_relabeling():
    # Swapping the +/- roles within direction 1 (and the matching gammas)
    # permutes which rule carries each residual but preserves the residual
    # multiset for the symmetric 1-direction combinations.
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    swapped = []
    for rec in records:
        if rec.label == "1+":
            other = next(r for r in records if r.label == "1-")
            swapped.append(TomographyRecord("1+", rec.input, other.output, other.gamma))
        elif rec.label == "1-":
            other = next(r for r in records if r.label == "1+")
            swapped.append(TomographyRecord("1-", rec.input, other.output, other.gamma))
        else:
            swapped.append(rec)
    base = bilinear_consistency_residuals(records)
    flipped = bilinear_consistency_residuals(swapped)
    # direction 3 is untouched by the 1-direction swap
    assert abs(base["GQ6-"] - flipped["GQ6-"]) < 1e-12


def test_report_json_shape():
    report = classify(measured_records(va_spec(), TWELVE_STATE_LABELS))
    payload = report.to_json()
    assert payload["schema"] == 2
    assert payload["verdict"] == "Bilinear"
    assert list(payload["linear_residuals"]) == list(TWELVE_STATE_LABELS)
    assert list(payload["bilinear_residuals"]) == list(TWELVE_STATE_LABELS)
    assert set(payload["gamma_completeness"]) == set("123456")
    assert payload["thresholds"] == {"linear": 1e-6, "bilinear": 1e-6}
    assert payload["warnings"] == []


def test_gamma_warning_emitted():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    skewed = [
        TomographyRecord(r.label, r.input, r.output, r.gamma + (0.05 if r.label == "1+" else 0.0))
        for r in records
    ]
    report = classify(skewed)
    assert any("direction 1" in w for w in report.warnings)
