"""The least-squares fit behind all three protocols, checked against the hand-derived rules."""

import numpy as np
import pytest

from helpers import (
    bilinear_consistency_residuals,
    linear_sum_rule_residuals,
    stochastic_records,
    va_spec,
)
from procmap.linear_tomo import reconstruct_linear_map
from procmap.records import LINEAR4_LABELS, TWELVE_STATE_LABELS, fit
from procmap.scenarios import DEMO_NAMES, demo_scenario_config, parse_scenario, simulate_scenario
from procmap.verify import DEFAULT_TOL_BILINEAR, DEFAULT_TOL_LINEAR, classify

SWEEP_T = np.linspace(0.05, 1.55, 31)
ZERO = 1e-12


def rule_verdict(records) -> str:
    if max(linear_sum_rule_residuals(records).values()) <= DEFAULT_TOL_LINEAR:
        return "Linear"
    if max(bilinear_consistency_residuals(records).values()) <= DEFAULT_TOL_BILINEAR:
        return "Bilinear"
    return "Neither"


@pytest.mark.parametrize("demo", DEMO_NAMES)
def test_fit_residuals_vanish_exactly_where_hand_rules_do(demo):
    for t in SWEEP_T:
        config = {**demo_scenario_config(demo), "t": float(t)}
        records = simulate_scenario(parse_scenario(config)).subset(TWELVE_STATE_LABELS)
        linear, bilinear = fit(records, degree=1), fit(records, degree=2)
        assert (linear.rank, bilinear.rank) == (4, 9)
        rules_linear = max(linear_sum_rule_residuals(records).values())
        rules_bilinear = max(bilinear_consistency_residuals(records).values())
        assert (max(linear.residuals.values()) <= ZERO) == (rules_linear <= ZERO), (demo, t)
        assert (max(bilinear.residuals.values()) <= ZERO) == (rules_bilinear <= ZERO), (demo, t)
        assert classify(records)["verdict"] == rule_verdict(records), (demo, t)


def test_twelve_record_linear_map_equals_four_record_map():
    spec = va_spec()
    four = reconstruct_linear_map(stochastic_records(spec, LINEAR4_LABELS))
    twelve = reconstruct_linear_map(stochastic_records(spec, TWELVE_STATE_LABELS))
    assert np.max(np.abs(twelve - four)) < 1e-12


def test_fit_reports_rank_condition_and_labelled_residuals():
    records = stochastic_records(va_spec(), LINEAR4_LABELS)
    result = fit(records, degree=1)
    assert result.rank == 4
    assert 1.0 <= result.cond < 10.0
    assert list(result.residuals) == list(LINEAR4_LABELS)
    assert max(result.residuals.values()) < 1e-14
    with pytest.raises(ValueError):
        fit(records, degree=3)
