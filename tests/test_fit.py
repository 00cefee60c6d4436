"""The least-squares fit behind all three protocols, checked against the hand-derived rules and against lstsq."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import procmap
from helpers import (
    bilinear_consistency_residuals,
    linear_sum_rule_residuals,
    reference_fit,
    stochastic_records,
    va_spec,
)
from procmap import cli, jsonio, records
from procmap.cli import main
from procmap.linear_tomo import reconstruct_linear_map
from procmap.records import (
    LINEAR4_LABELS,
    MIXED_LABEL,
    NINE_STATE_LABELS,
    TWELVE_STATE_LABELS,
    Dataset,
    fit,
    state_of_label,
)
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


def random_dataset(rng, k: int, scale=1.0) -> Dataset:
    """k records with random complex 2 x 2 inputs (columns of vec P times `scale`), outputs and gammas."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    inputs = (cplx(k, 4) * scale).reshape(k, 2, 2)
    return Dataset(tuple(f"r{i}" for i in range(k)), inputs, cplx(k, 2, 2), rng.uniform(0.1, 1.0, k))


def protocol_dataset(rng) -> Dataset:
    """The twelve protocol projectors with random outputs and gammas: the rank-9 degree-2 design."""
    twelve = random_dataset(rng, 12)
    inputs = np.array([state_of_label(label) for label in TWELVE_STATE_LABELS])
    return Dataset(TWELVE_STATE_LABELS, inputs, twelve.outputs, twelve.gammas)


def measurement_dataset(**overrides) -> Dataset:
    return simulate_scenario(parse_scenario({**demo_scenario_config("measurement-correlated"), **overrides}))


def max_rel_dev(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), np.finfo(float).tiny))


# (name, dataset, degree, expected rank, condition-number range)
FIT_CASES = [
    ("full-rank-degree-1", lambda rng: random_dataset(rng, 12), 1, 4, (1.0, 1e3)),
    ("full-rank-degree-2", lambda rng: random_dataset(rng, 24), 2, 16, (1.0, 1e4)),
    ("twelve-projectors-degree-2", protocol_dataset, 2, 9, (1.0, 10.0)),
    # A graded design: the last column of vec P scaled by 1e-10.
    ("near-singular", lambda rng: random_dataset(rng, 8, np.array([1.0, 1.0, 1.0, 1e-10])), 1, 4, (1e9, 1e12)),
    ("zero-records-degree-1", lambda rng: random_dataset(rng, 0), 1, 0, (np.inf, np.inf)),
    ("zero-records-degree-2", lambda rng: random_dataset(rng, 0), 2, 0, (np.inf, np.inf)),
]


@pytest.mark.parametrize("make, degree, rank, cond_range", [case[1:] for case in FIT_CASES],
                         ids=[case[0] for case in FIT_CASES])
@pytest.mark.parametrize("seed", range(5))
def test_fit_matches_lstsq_reference(make, degree, rank, cond_range, seed):
    dataset = make(np.random.default_rng(seed))
    result, reference = fit(dataset, degree), reference_fit(dataset, degree)
    assert result.rank == reference.rank == rank
    assert cond_range[0] <= result.cond <= cond_range[1]
    assert result.cond == reference.cond if rank == 0 else abs(result.cond / reference.cond - 1.0) <= 1e-9
    assert result.coef.shape == reference.coef.shape
    assert max_rel_dev(result.coef, reference.coef) <= 1e-12
    assert list(result.residuals) == list(reference.residuals)
    assert max_rel_dev(list(result.residuals.values()), list(reference.residuals.values())) <= 1e-12


@pytest.mark.parametrize("ratio, rank", [(0.8, 3), (1.25, 4)])
def test_rank_threshold_is_lstsq_default_rcond(ratio, rank):
    # A singular value just below or above eps * max(k, n) * s_max, on a design with exact singular values.
    k = 6
    inputs = np.zeros((k, 4), dtype=complex)
    inputs[[4, 0, 3, 1], range(4)] = [1.0, 0.5j, -0.25, ratio * np.finfo(float).eps * k]
    dataset = Dataset(tuple(f"r{i}" for i in range(k)), inputs.reshape(k, 2, 2), np.ones((k, 2, 2)), np.ones(k))
    assert fit(dataset, 1).rank == reference_fit(dataset, 1).rank == rank


def fit_bytes(result) -> tuple:
    return result.coef.tobytes(), repr(result.residuals), result.rank, repr(result.cond)


@pytest.mark.parametrize("overrides", [{}, {"shots": 1000, "seed": 3}])
def test_fit_does_not_depend_on_what_the_process_fitted_before(overrides):
    dataset = measurement_dataset(**overrides)
    rng = np.random.default_rng(11)
    others = [random_dataset(rng, 12) for _ in range(12)]
    for fitted, degree in ((dataset.subset(TWELVE_STATE_LABELS), 1), (dataset.subset(TWELVE_STATE_LABELS), 2),
                           (dataset.subset(NINE_STATE_LABELS + (MIXED_LABEL,)), 2),
                           (dataset.subset(LINEAR4_LABELS), 1)):
        records._factor.cache_clear()
        cold = fit_bytes(fit(fitted, degree))
        assert fit_bytes(fit(fitted, degree)) == cold
        for other in others[:2]:  # still cached afterwards
            fit(other, degree)
        assert fit_bytes(fit(fitted, degree)) == cold
        for other in others:  # evicted by the others
            fit(other, degree)
        assert fit_bytes(fit(fitted, degree)) == cold


def test_fresh_process_output_equals_warm_in_process_output(tmp_path, capsys, decodes):
    paths = []
    for name, overrides in (("exact", {}), ("shots", {"shots": 1000, "seed": 5})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(jsonio.dumps(measurement_dataset(**overrides).to_json()))
    commands = [argv for path in paths
                for argv in (["tomo", str(path), "--mode", "linear"], ["tomo", str(path), "--mode", "bilinear"],
                             ["verify", str(path)])]
    for argv in commands * 2:  # warm every design
        assert main(argv) == 0
    capsys.readouterr()
    decodes.clear()
    for argv in commands:
        assert main(argv) == 0
    expected = capsys.readouterr().out
    assert (len(decodes), len(cli._datasets)) == (0, 2)  # the warm side reuses both decoded datasets: all hits
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1])}
    code = "import json, sys\nfrom procmap.cli import main\nfor argv in json.loads(sys.argv[1]):\n    main(argv)"
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_cached_factorization_is_read_only_and_coef_is_fresh():
    dataset = measurement_dataset().subset(TWELVE_STATE_LABELS)
    first = fit(dataset, 1)
    design = dataset.inputs.reshape(12, 4)
    pinv, _, _ = records._factor(design.tobytes(), design.shape)
    assert not pinv.flags.writeable
    with pytest.raises(ValueError):
        pinv[0, 0] = 1.0
    assert not np.shares_memory(first.coef, pinv)
    expected = first.coef.copy()
    first.coef[:] = 7.0
    assert fit(dataset, 1).coef.tobytes() == expected.tobytes()
