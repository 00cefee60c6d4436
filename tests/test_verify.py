from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    bilinear_consistency_residuals,
    is_projector,
    linear_sum_rule_residuals,
    measured_records,
    rand_density,
    stochastic_records,
    twelve_outcome_config,
    va_spec,
)
from procmap.dynamics import ProcessSpec
from procmap.qstate import SIGMA_1, bloch_vector, state_from_bloch, tensor
from procmap.records import TWELVE_STATE_LABELS, Dataset, MissingRecord, state_of_label
from procmap.scenarios import parse_scenario, simulate_scenario
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
    states = [state_of_label(l) for l in TWELVE_STATE_LABELS]
    residuals = linear_sum_rule_residuals(Dataset(TWELVE_STATE_LABELS, states, states, [1.0] * 12))
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


def tamper(records, labels):
    """`records` with 0.05 sigma_1 added to the output of each record in `labels`."""
    outputs = records.outputs.copy()
    for label in labels:
        outputs[records.labels.index(label)] += 0.05 * SIGMA_1
    return replace(records, outputs=outputs)


def test_corrupted_record_breaks_bilinear_equations():
    tampered = tamper(measured_records(va_spec(), TWELVE_STATE_LABELS), ["4-"])
    residuals = bilinear_consistency_residuals(tampered)
    assert max(residuals.values()) >= 0.01


def test_gamma_completeness_exact():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    devs = gamma_completeness(records)
    assert max(abs(v) for v in devs.values()) < 1e-12


def test_classify_linear():
    report = classify(stochastic_records(va_spec(), TWELVE_STATE_LABELS), tol_linear=1e-10, tol_bilinear=1e-10)
    assert report["verdict"] == "Linear"
    assert max(report["linear_residuals"].values()) <= 1e-10


def test_classify_bilinear():
    report = classify(measured_records(va_spec(), TWELVE_STATE_LABELS), tol_linear=1e-10, tol_bilinear=1e-10)
    assert report["verdict"] == "Bilinear"
    # The per-record misfit of the linear fit is 0.083 here; the hand rules
    # (checked in test_measurement_scenario_breaks_sum_rules) reach 0.2.
    assert max(report["linear_residuals"].values()) >= 0.05
    assert max(report["bilinear_residuals"].values()) <= 1e-10


def test_classify_neither_for_adversarial_records():
    tampered = tamper(measured_records(va_spec(), TWELVE_STATE_LABELS), ["4-", "5-"])
    report = classify(tampered)
    assert report["verdict"] == "Neither"


def test_classify_requires_all_labels():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    with pytest.raises(MissingRecord):
        classify(records.subset(TWELVE_STATE_LABELS[:-1]))


def test_residuals_invariant_under_pair_relabeling():
    # Swapping the +/- roles within direction 1 (and the matching gammas)
    # permutes which rule carries each residual but preserves the residual
    # multiset for the symmetric 1-direction combinations.
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    assert records.labels[:2] == ("1+", "1-")
    swap = [1, 0, *range(2, 12)]
    swapped = replace(records, outputs=records.outputs[swap], gammas=records.gammas[swap])
    base = bilinear_consistency_residuals(records)
    flipped = bilinear_consistency_residuals(swapped)
    # direction 3 is untouched by the 1-direction swap
    assert abs(base["GQ6-"] - flipped["GQ6-"]) < 1e-12


def test_report_json_shape():
    payload = classify(measured_records(va_spec(), TWELVE_STATE_LABELS))
    assert payload["schema"] == 2
    assert payload["verdict"] == "Bilinear"
    assert list(payload["linear_residuals"]) == list(TWELVE_STATE_LABELS)
    assert list(payload["bilinear_residuals"]) == list(TWELVE_STATE_LABELS)
    assert set(payload["gamma_completeness"]) == set("123456")
    assert payload["thresholds"] == {"linear": 1e-6, "bilinear": 1e-6}
    assert payload["warnings"] == []


def test_gamma_warning_emitted():
    records = measured_records(va_spec(), TWELVE_STATE_LABELS)
    gammas = records.gammas.copy()
    gammas[records.labels.index("1+")] += 0.05
    report = classify(replace(records, gammas=gammas))
    assert any("direction 1" in w for w in report["warnings"])


@pytest.mark.parametrize("preparation", ["generalized", "measurement", None])
def test_gamma_warnings_only_where_a_direction_is_one_measurement(preparation):
    # Under a complete twelve-outcome measurement each direction's gammas sum to 1/6, as they should; only the
    # records of measurement preparation, or of an unnamed one, are pairs that must sum to 1.
    dataset = simulate_scenario(parse_scenario(twelve_outcome_config()))
    assert all(abs(dev + 5.0 / 6.0) < 1e-12 for dev in gamma_completeness(dataset).values())
    metadata = {k: v for k, v in dataset.metadata.items() if k != "preparation"}
    if preparation is not None:
        metadata["preparation"] = preparation
    warnings = classify(replace(dataset, metadata=metadata))["warnings"]
    assert len(warnings) == (0 if preparation == "generalized" else 6), warnings
