"""The CLI surface through `main(argv)` and `python -m procmap.cli`: exit codes, one-line diagnostics, oracle block."""

import errno
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import procmap
from procmap import cli, dynamics, jsonio, records
from procmap.bilinear_tomo import NotStrictlyMixed, ZeroGamma
from procmap.cli import main
from procmap.dynamics import InvalidMeasurement, ProcessSpec, ZeroProbabilityOutcome, unitary_from_hamiltonian
from procmap.errors import (
    EXIT_BAD_CONFIG,
    EXIT_MISSING_LABELS,
    EXIT_NOT_A_FRAME,
    EXIT_OK,
    EXIT_ZERO_PROBABILITY,
)
from procmap.linear_tomo import NotAFrame, apply_linear_map, reconstruct_linear_map
from procmap.qstate import bloch_vector, state_from_bloch, validate_density_matrix, validate_unitary
from procmap.records import LINEAR4_LABELS, TWELVE_STATE_LABELS, Dataset, MissingRecord, fit, state_of_label
from procmap.scenarios import DEMO_NAMES, ScenarioError, demo_scenario_config, parse_scenario, simulate_scenario


def run(argv, capsys):
    """Exit code and stderr of one CLI call; a failure must be a one-line diagnostic."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def simulate(tmp_path, capsys, demo="measurement-correlated", **overrides):
    """Simulate a demo scenario through the CLI; returns the parsed dataset JSON."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(jsonio.dumps({**demo_scenario_config(demo), **overrides}))
    dataset = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--out", dataset], capsys) == (EXIT_OK, "")
    return json.loads(dataset.read_text())


def write_dataset(tmp_path, obj):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))  # json writes NaN literally, as a hand-edited file might
    return path


def test_simulate_tomo_verify_succeed(tmp_path, capsys):
    simulate(tmp_path, capsys)
    dataset = tmp_path / "dataset.json"
    for argv in (
        ["tomo", dataset, "--mode", "linear"],
        ["tomo", dataset, "--mode", "bilinear"],
        ["verify", dataset],
    ):
        assert run(argv, capsys)[0] == EXIT_OK


def test_non_finite_matrix_entry_is_bad_config(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    obj["records"][0]["output"]["data"][0][0] = float("nan")
    path = write_dataset(tmp_path, obj)
    for mode in ("linear", "bilinear"):
        assert run(["tomo", path, "--mode", mode], capsys)[0] == EXIT_BAD_CONFIG


def test_non_finite_gamma_is_bad_config(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    obj["records"][3]["gamma"] = float("nan")
    assert run(["verify", write_dataset(tmp_path, obj)], capsys)[0] == EXIT_BAD_CONFIG


def test_zero_gamma_record_exits_3(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    obj["records"][0]["gamma"] = 0.0
    path = write_dataset(tmp_path, obj)
    assert run(["tomo", path, "--mode", "bilinear"], capsys)[0] == EXIT_ZERO_PROBABILITY


def test_qudit_system_is_bad_config(tmp_path, capsys):
    scenario = tmp_path / "qutrit.json"
    scenario.write_text(jsonio.dumps({**demo_scenario_config("imperfect-pin"), "dimA": 3}))
    code, err = run(["simulate", scenario], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "dimA" in err


def test_incomplete_generalized_measurement_is_bad_config(tmp_path, capsys):
    half = jsonio.matrix_to_json(0.5 * np.eye(2))
    outcome = {"weights": [1.0], "kraus": [half]}
    config = {
        **demo_scenario_config("stochastic-heisenberg"),
        "preparation": {
            "method": "generalized",
            "measurement": {"outcomes": [outcome] * len(TWELVE_STATE_LABELS)},
            "labels": list(TWELVE_STATE_LABELS),
        },
    }
    scenario = tmp_path / "incomplete.json"
    scenario.write_text(jsonio.dumps(config))
    code, err = run(["simulate", scenario], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "trace-preserving" in err


MEASUREMENT = demo_scenario_config("measurement-correlated")
PINNED = demo_scenario_config("imperfect-pin")
STOCHASTIC = demo_scenario_config("stochastic-heisenberg")
TWELFTH = jsonio.matrix_to_json(np.eye(2) / np.sqrt(12.0))


def generalized(*weights):
    """The stochastic demo prepared by a twelve-outcome measurement whose Kraus operators
    are all 1/sqrt(12); the first outcome has one per weight in `weights`."""
    first = {"weights": list(weights), "kraus": [TWELFTH] * len(weights)}
    outcomes = [first] + [{"weights": [1.0], "kraus": [TWELFTH]}] * 11
    preparation = {"method": "generalized", "measurement": {"outcomes": outcomes}, "labels": list(TWELVE_STATE_LABELS)}
    return {**STOCHASTIC, "preparation": preparation}


def gamma_above_one():
    """A twelve-outcome measurement, complete within STATE_TOL, whose outcome 0 has gamma 1 + 4e-12 on 1+.

    Outcome 0 is sqrt(1 + 2e-12 (1 + sigma_1)), each other outcome sqrt(5e-12) 1, on gamma0 = rho(0.999 x) (x) 1/2.
    """
    root = np.sqrt(1.0 + 4e-12)  # 1 + sigma_1 has eigenvalues 0 and 2
    first = ((root + 1.0) * np.eye(2) + (root - 1.0) * np.array([[0.0, 1.0], [1.0, 0.0]])) / 2.0
    rest = np.sqrt(5e-12) * np.eye(2)
    outcomes = [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(c)]} for c in [first] + [rest] * 11]
    preparation = {"method": "generalized", "measurement": {"outcomes": outcomes}, "labels": list(TWELVE_STATE_LABELS)}
    return {**STOCHASTIC, "gamma0": {"bloch_a": [0.999, 0.0, 0.0], "c23": 0.0}, "preparation": preparation}


def over_complete():
    """A four-outcome linear4 measurement whose effects sum to (1 + 9e-11) 1, complete within STATE_TOL.

    Weights 1 + delta - eps and eps on |0><0|, and (1 + delta) / 2 twice on |1><1|, on gamma0 = rho(-0.998 z) (x) 1/2,
    so the four gammas sum to 1 + delta and the leading three alone exceed 1.
    """
    delta, eps = 9e-11, 1e-8
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    terms = ((1.0 + delta - eps, zero), ((1.0 + delta) / 2.0, one), ((1.0 + delta) / 2.0, one), (eps, zero))
    outcomes = [{"weights": [w], "kraus": [jsonio.matrix_to_json(c)]} for w, c in terms]
    preparation = {"method": "generalized", "measurement": {"outcomes": outcomes}, "labels": list(LINEAR4_LABELS)}
    gamma0 = {"bloch_a": [0.0, 0.0, -0.998], "c23": 0.0}
    return {**STOCHASTIC, "t": 0.1, "gamma0": gamma0, "protocol": "linear4", "preparation": preparation}


def excluding(bad_labels):
    """The stochastic demo with its system pinned to |0>, prepared by a twelve-outcome measurement in reversed
    label order whose outcomes for `bad_labels` never occur.

    gamma0 = |0><0| (x) 1/2; each bad outcome is sqrt(0.5 / k) |1><1| for k bad labels, so its probability is
    exactly 0, and each other outcome diag(1, sqrt(0.5)) / sqrt(12 - k) completes the measurement.
    """
    labels = TWELVE_STATE_LABELS[::-1]
    k = len(bad_labels)
    bad = np.sqrt(0.5 / k) * np.diag([0.0, 1.0])
    rest = np.diag([1.0, np.sqrt(0.5)]) / np.sqrt(12.0 - k)
    outcomes = [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(bad if label in bad_labels else rest)]}
                for label in labels]
    preparation = {"method": "generalized", "measurement": {"outcomes": outcomes}, "labels": list(labels)}
    return {**STOCHASTIC, "gamma0": {"bloch_a": [0.0, 0.0, 1.0], "c23": 0.0}, "preparation": preparation}


def in_field(field: str, matrix: dict) -> dict:
    """A scenario with `matrix` as the imperfect-pin demo's hamiltonian or gamma0, or, for "kraus", as outcome 0's
    Kraus operator of `generalized(1.0)`."""
    if field != "kraus":
        return {**PINNED, field: matrix}
    config = generalized(1.0)
    outcomes = [{"weights": [1.0], "kraus": [matrix]}, *config["preparation"]["measurement"]["outcomes"][1:]]
    return {**config, "preparation": {**config["preparation"], "measurement": {"outcomes": outcomes}}}


# Each matrix field of a scenario, its name in a diagnostic and its well-formed matrix.
MATRIX_FIELDS = {"hamiltonian": ("hamiltonian", PINNED["hamiltonian"]), "gamma0": ("gamma0", PINNED["gamma0"]),
                 "kraus": ("measurement outcome 0 kraus[0]", TWELFTH)}
# Each decode fault of an n x n matrix: its data made from the well-formed data, and the decoder's message.
MATRIX_FAULTS = {
    "string-entry": (lambda data: [["0.5", 0.0], *data[1:]],
                     lambda n: "matrix entries must be JSON numbers, got '0.5'"),
    "inf-entry": (lambda data: [[float("inf"), 0.0], *data[1:]], lambda n: "matrix JSON contains non-finite values"),
    "short-data": (lambda data: data[:-1],
                   lambda n: f"matrix shapes must all be {n}x{n} with {n * n} [re, im] pairs, got {n}x{n} with {n * n - 1}"),
}
# Each (field, fault) as its malformed scenario and its whole diagnostic, which names the field.
MATRIX_CASES = {f"{field}-{fault}": (in_field(field, {**matrix, "data": spoil(matrix["data"])}),
                                     f"malformed scenario: {name}: {message(matrix['rows'])}")
                for field, (name, matrix) in MATRIX_FIELDS.items() for fault, (spoil, message) in MATRIX_FAULTS.items()}


# Each malformed scenario as a JSON value, or as the file's text when json cannot write it.
BAD_SCENARIOS = {
    "top-level-array": [STOCHASTIC],
    "preparation-string": {**MEASUREMENT, "preparation": "measurement"},
    "t-nan": {**MEASUREMENT, "t": float("nan")},
    "t-infinity": {**MEASUREMENT, "t": float("inf")},
    "mixed-bloch-nan": {**MEASUREMENT, "mixed_bloch": [float("nan"), 0.0, 0.0]},
    "dimB-3-with-4x4-hamiltonian": {**PINNED, "dimB": 3},
    "gamma0-3x3": {**PINNED, "gamma0": jsonio.matrix_to_json(np.eye(3) / 3.0)},
    "non-hermitian-hamiltonian": {**PINNED, "hamiltonian": jsonio.matrix_to_json(np.triu(np.ones((4, 4))))},
    "negative-gamma0": {**PINNED, "gamma0": jsonio.matrix_to_json(np.diag([1.5, -0.5, 0.0, 0.0]))},
    "negative-seed": {**STOCHASTIC, "shots": 100, "seed": -1},
    "empty-measurement": {
        **STOCHASTIC,
        "preparation": {"method": "generalized", "measurement": {"outcomes": []}, "labels": []},
    },
    "dimA-float": {**PINNED, "dimA": 2.0},
    "dimB-float": {**PINNED, "dimB": 2.5},
    "shots-true": {**STOCHASTIC, "shots": True},
    "shots-float": {**STOCHASTIC, "shots": 1.5},
    "shots-2**63": {**STOCHASTIC, "shots": 2**63},
    "seed-string": {**STOCHASTIC, "shots": 100, "seed": "7"},
    "t-string": {**MEASUREMENT, "t": "1"},
    "t-true": {**MEASUREMENT, "t": True},
    "pin-target": {**STOCHASTIC, "preparation": {"method": "stochastic", "pin_target": jsonio.matrix_to_json(np.eye(2))}},
    "env-tau": {**STOCHASTIC, "preparation": {"method": "stochastic", "env_tau": jsonio.matrix_to_json(np.eye(2) / 2)}},
    "phi": {**PINNED, "preparation": {"method": "rotation_only", "phi": jsonio.matrix_to_json(np.eye(2))}},
    "labels-without-generalized": {**MEASUREMENT, "preparation": {"method": "measurement", "labels": []}},
    "c23-string": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": "0.3"}},
    "c23-true": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": True}},
    "c23-nan": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": float("nan")}},
    "bloch-a-not-a-state": {**MEASUREMENT, "gamma0": {"bloch_a": [0, 2.0, 0]}},
    "bloch-a-c23-not-a-state": {**MEASUREMENT, "gamma0": {"bloch_a": [0, 0.9, 0], "c23": 0.5}},
    "bloch-a-two-entries": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5], "c23": 0.3}},
    "bloch-a-four-entries": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0, 0.2], "c23": 0.3}},
    "bloch-a-string-and-bool": {**MEASUREMENT, "gamma0": {"bloch_a": ["0.1", False, 0], "c23": 0.3}},
    "mixed-bloch-string-and-bool": {**MEASUREMENT, "mixed_bloch": ["0.1", False, 0]},
    "mixed-bloch-1e300": {**MEASUREMENT, "mixed_bloch": [1e300, 0, 0]},
    "t-integer-beyond-float": {**MEASUREMENT, "t": 10**400},
    "t-5000-digits": '{"t": ' + "1" * 5000 + "}",
    "weight-nan": generalized(float("nan")),
    "weight-string": generalized("0.5", "0.5"),
    "gamma-above-one": gamma_above_one(),
    **{case: config for case, (config, _) in MATRIX_CASES.items()},
    "kraus-1x1": {
        **STOCHASTIC,
        "preparation": {
            **generalized(1.0)["preparation"],
            "measurement": {"outcomes": [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(np.eye(1) / np.sqrt(12.0))]}] * 12},
        },
    },
    # Eigenvalues times t that overflow: once a NaN unitary residual passed validate_unitary.
    "hamiltonian-1e300-t-1e10": {**PINNED, "hamiltonian": jsonio.matrix_to_json(1e300 * np.eye(4)), "t": 1e10},
    "hamiltonian-off-diagonal-1e308": {
        **PINNED, "hamiltonian": jsonio.matrix_to_json(1e308 * (np.ones((4, 4)) - np.eye(4))), "t": 1.0,
    },
    "bloch-a-1e308": {**MEASUREMENT, "gamma0": {"bloch_a": [1e308, 1e308, 1e308], "c23": 1e308}},
    "c23-1e308": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": 1e308}},
    "protocol-null": {**MEASUREMENT, "protocol": None},
    "method-integer": {**MEASUREMENT, "preparation": {"method": 3}},
    "generalized-label-integer": {
        **STOCHASTIC, "preparation": {**generalized(1.0)["preparation"], "labels": [1, *TWELVE_STATE_LABELS[1:]]},
    },
    "kraus-1e200": {
        **STOCHASTIC,
        "preparation": {
            **generalized(1.0)["preparation"],
            "measurement": {"outcomes": [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(1e200 * np.eye(2))]}] * 12},
        },
    },
    "dimB-0": {**PINNED, "dimB": 0},
    "heisenberg-dimB-3": {**MEASUREMENT, "dimB": 3},
    "method-teleport": {**MEASUREMENT, "preparation": {"method": "teleport"}},
    "generalized-labels-not-verify12": {
        **STOCHASTIC, "preparation": {**generalized(1.0)["preparation"], "labels": ["1+", *TWELVE_STATE_LABELS[:-1]]},
    },
    "13-outcomes-12-labels": {
        **STOCHASTIC,
        "preparation": {
            **generalized(1.0)["preparation"],
            "measurement": {"outcomes": [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(np.eye(2) / np.sqrt(13.0))]}] * 13},
        },
    },
    # A key the parser does not read: a typo would otherwise leave its default in force.
    "top-level-typo": {**STOCHASTIC, "shot": 1000},
    "gamma0-c32": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0], "c23": 0.3, "c32": 0.9}},
    "measurement-extra-key": {
        **STOCHASTIC,
        "preparation": {**generalized(1.0)["preparation"],
                        "measurement": {**generalized(1.0)["preparation"]["measurement"], "complete": True}},
    },
    "outcome-extra-key": {
        **STOCHASTIC,
        "preparation": {**generalized(1.0)["preparation"],
                        "measurement": {"outcomes": [{"weights": [1.0], "kraus": [TWELFTH], "label": "1+"}] * 12}},
    },
    "hamiltonian-extra-key": {**PINNED, "hamiltonian": {**PINNED["hamiltonian"], "hermitian": True}},
    "gamma0-matrix-extra-key": {**PINNED, "gamma0": {**PINNED["gamma0"], "trace": 1.0}},
    "kraus-extra-key": {
        **STOCHASTIC,
        "preparation": {**generalized(1.0)["preparation"], "measurement": {"outcomes": [
            *[{"weights": [1.0], "kraus": [TWELFTH]}] * 11,
            {"weights": [0.5, 0.5], "kraus": [TWELFTH, {**TWELFTH, "rank": 1}]},
        ]}},
    },
    "hamiltonian-not-an-object": {**PINNED, "hamiltonian": "exchange"},
}


# The words the one-line diagnostic of each malformed scenario must contain.
BAD_SCENARIO_WORDS = {
    "top-level-array": "JSON object",
    "preparation-string": "preparation",
    "t-nan": "t must be finite",
    "t-infinity": "t must be finite",
    "mixed-bloch-nan": "mixed_bloch",
    "dimB-3-with-4x4-hamiltonian": "hamiltonian",
    "gamma0-3x3": "gamma0",
    "non-hermitian-hamiltonian": ("Hermitian", "hamiltonian"),
    "negative-gamma0": ("negative eigenvalue", "gamma0"),
    "negative-seed": "seed",
    "empty-measurement": "outcomes",
    "dimA-float": "dimA",
    "dimB-float": "dimB",
    "shots-true": "shots",
    "shots-float": "shots",
    "shots-2**63": "shots",
    "seed-string": "seed",
    "t-string": "t must be a JSON number",
    "t-true": "t must be a JSON number",
    "pin-target": "pin_target",
    "env-tau": "env_tau",
    "phi": "'phi'",
    "labels-without-generalized": "labels",
    "c23-string": "c23 must be a JSON number",
    "c23-true": "c23 must be a JSON number",
    "c23-nan": "c23 must be finite",
    "bloch-a-not-a-state": ("negative eigenvalue", "gamma0"),
    "bloch-a-c23-not-a-state": "gamma0 has negative eigenvalue",
    "bloch-a-two-entries": "gamma0.bloch_a must be a list of three",
    "bloch-a-four-entries": "gamma0.bloch_a must be a list of three",
    "bloch-a-string-and-bool": "gamma0.bloch_a[0] must be a JSON number",
    "mixed-bloch-string-and-bool": "mixed_bloch[0] must be a JSON number",
    "mixed-bloch-1e300": "mixed_bloch must have norm strictly below 1",
    "t-integer-beyond-float": "t must be finite",
    "t-5000-digits": ("bad.json", "more than 4300 digits"),
    "weight-nan": "weight must be finite",
    "weight-string": "weight must be a JSON number",
    "gamma-above-one": ("preparation 1+", "above 1"),
    **{case: diagnostic for case, (_, diagnostic) in MATRIX_CASES.items()},
    "kraus-1x1": "Kraus operators must be 2x2",
    "hamiltonian-1e300-t-1e10": ("hamiltonian eigenvalues times t", "not finite"),
    "hamiltonian-off-diagonal-1e308": ("hamiltonian eigenvalues times t", "not finite"),
    "bloch-a-1e308": ("gamma0.bloch_a", "above 1"),
    "c23-1e308": ("gamma0.c23", "above 1"),
    "kraus-1e200": "trace-preserving",
    "protocol-null": "protocol must be a JSON string, got NoneType",
    "method-integer": "preparation.method must be a JSON string, got int",
    "generalized-label-integer": "preparation.labels[0] must be a JSON string, got int",
    "dimB-0": "dimB must be positive",
    "heisenberg-dimB-3": '"heisenberg" keyword requires dimA = dimB = 2',
    "method-teleport": "unknown preparation method 'teleport'",
    "generalized-labels-not-verify12": "generalized preparation labels must cover the verify12 labels",
    "13-outcomes-12-labels": "one label per measurement outcome is required",
    "top-level-typo": "scenario key 'shot' is not read",
    "gamma0-c32": "gamma0 key 'c32' is not read",
    "measurement-extra-key": "preparation.measurement key 'complete' is not read",
    "outcome-extra-key": "measurement outcome 0 key 'label' is not read",
    "hamiltonian-extra-key": "hamiltonian key 'hermitian' is not read",
    "gamma0-matrix-extra-key": "gamma0 key 'trace' is not read",
    "kraus-extra-key": "measurement outcome 11 kraus[1] key 'rank' is not read",
    "hamiltonian-not-an-object": "hamiltonian must be a JSON object, got str",
}

UNREAD_KEY_CASES = ("top-level-typo", "gamma0-c32", "measurement-extra-key", "outcome-extra-key",
                    "hamiltonian-extra-key", "gamma0-matrix-extra-key", "kraus-extra-key")


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_malformed_scenario_is_bad_config(case, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    config = BAD_SCENARIOS[case]
    scenario.write_text(config if isinstance(config, str) else json.dumps(config))  # json writes NaN and Infinity literally
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run(["simulate", scenario], capsys)
    assert code == EXIT_BAD_CONFIG
    assert not caught, [str(w.message) for w in caught]  # a warning would be a second stderr line
    words = BAD_SCENARIO_WORDS[case]
    assert all(word in err for word in (words if isinstance(words, tuple) else (words,))), err
    assert "set_int_max_str_digits" not in err, err  # advice no CLI user can follow


@pytest.mark.parametrize("case", UNREAD_KEY_CASES)
def test_unread_scenario_key_writes_nothing_in_process_or_through_the_entry_point(case, tmp_path, capsys):
    scenario, dataset = tmp_path / "bad.json", tmp_path / "dataset.json"
    scenario.write_text(json.dumps(BAD_SCENARIOS[case]))
    argv = ["simulate", scenario, "--out", dataset]
    code, err = run(argv, capsys)
    assert (code, err) == (EXIT_BAD_CONFIG, f"error: {BAD_SCENARIO_WORDS[case]}\n")
    assert cli_process(argv, stdout=subprocess.PIPE) == (code, "", err)
    assert not dataset.exists()


def test_bloch_a_gamma0_is_density_checked_once(monkeypatch):
    calls = []

    def counting_check(*args, **kwargs):
        calls.append(kwargs.get("what"))
        return validate_density_matrix(*args, **kwargs)

    monkeypatch.setattr(dynamics, "validate_density_matrix", counting_check)
    parse_scenario(MEASUREMENT)
    assert calls == ["gamma0"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_utf8_input_is_bad_config(command, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    code, err = run([command, path], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "UTF-8" in err


@pytest.mark.parametrize("argv", [["simulate"], ["tomo", "--mode", "linear"], ["verify"]], ids=["simulate", "tomo", "verify"])
def test_deeply_nested_json_is_bad_config(argv, tmp_path, capsys):
    # Deep enough to exceed the decoder's recursion limit on every supported Python.
    path = tmp_path / "deep.json"
    path.write_text('{"records": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, err = run([argv[0], path, *argv[1:]], capsys)
    assert code == EXIT_BAD_CONFIG
    assert err == f"error: {path} holds JSON nested too deeply to decode\n"


def test_complete_generalized_measurement_simulates(tmp_path, capsys):
    simulate(tmp_path, capsys, demo="stochastic-heisenberg", **generalized(0.5, 0.5))


def test_rounded_projector_measurement_simulates(tmp_path, capsys):
    # The twelve protocol projectors at weight 1/6 each, entries written to 11 digits: projectors
    # and complete within STATE_TOL, so no P (x) tau cross-check at 1e-12 may reject them.
    outcomes = []
    for label in TWELVE_STATE_LABELS:
        p = np.round(state_of_label(label), 11)
        outcomes.append({"weights": [1.0 / 6.0], "kraus": [jsonio.matrix_to_json(p)]})
    measurement = {"outcomes": outcomes}
    preparation = {"method": "generalized", "measurement": measurement, "labels": list(TWELVE_STATE_LABELS)}
    obj = simulate(tmp_path, capsys, demo="stochastic-heisenberg", preparation=preparation)
    assert sum(rec["gamma"] for rec in obj["records"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [1e-6, 1e-9])
@pytest.mark.parametrize("direction", "123456")
def test_nearly_excluded_direction_runs_every_command(direction, eta, tmp_path, capsys):
    # gamma0 = (1 - eta) rho(-d) (x) 1/2 + eta 1/4 gives the d+ outcome probability eta / 2, and the
    # rounding of that record's gamma*Q, once divided by so small a trace, grows like 1 / eta.
    rho = state_of_label(f"{direction}-")
    gamma0 = (1.0 - eta) * np.kron(rho, 0.5 * np.eye(2)) + eta * np.eye(4) / 4.0
    simulate(tmp_path, capsys, gamma0=jsonio.matrix_to_json(gamma0))
    dataset = tmp_path / "dataset.json"
    for argv in (["tomo", dataset, "--mode", "linear"], ["tomo", dataset, "--mode", "bilinear"], ["verify", dataset]):
        assert run(argv, capsys)[0] == EXIT_OK, argv


def set_gamma(obj, label, gamma):
    """Give the labeled record the outcome probability `gamma`."""
    next(rec for rec in obj["records"] if rec["label"] == label)["gamma"] = gamma
    return obj


def set_dims(obj, label, rows, cols):
    """Give the labeled record's input matrix the `rows` and `cols` fields."""
    matrix = next(rec for rec in obj["records"] if rec["label"] == label)["input"]
    matrix.update(rows=rows, cols=cols)
    return obj


def set_data(obj, label, side, entries):
    """Give the labeled record's `side` matrix the [re, im] pairs `entries`, keyed by row-major index."""
    data = next(rec for rec in obj["records"] if rec["label"] == label)[side]["data"]
    for index, pair in entries.items():
        data[index] = pair
    return obj


def drop_entries(obj, label, side, count):
    """Drop the last `count` [re, im] pairs of the labeled record's `side` matrix."""
    del next(rec for rec in obj["records"] if rec["label"] == label)[side]["data"][-count:]
    return obj


def set_label(obj, index, label):
    """Give record `index` the label `label`."""
    obj["records"][index]["label"] = label
    return obj


def equal_linear_inputs(obj):
    """Give every linear-protocol record the input of the first."""
    first = next(r for r in obj["records"] if r["label"] == LINEAR4_LABELS[0])
    for rec in obj["records"]:
        if rec["label"] in LINEAR4_LABELS:
            rec["input"] = first["input"]
    return obj


def input_of_record_1(obj):
    """Give record 0, labeled 1+, the input of record 1."""
    assert obj["records"][0]["label"] == "1+"
    obj["records"][0]["input"] = obj["records"][1]["input"]
    return obj


def resize_records(obj, labels, dim):
    """Replace the input and output of the labeled records by dim x dim identities."""
    for rec in obj["records"]:
        if rec["label"] in labels:
            rec["input"] = rec["output"] = jsonio.matrix_to_json(np.eye(dim))
    return obj


@pytest.mark.parametrize(
    "edit, commands, word",
    [
        (lambda obj: resize_records(obj, TWELVE_STATE_LABELS + ("mixed",), 1), ["verify"], "shapes"),
        (lambda obj: resize_records(obj, ("2+",), 3), ["verify", "bilinear"], "shapes"),
        (lambda obj: {**obj, "metadata": [1]}, ["verify", "linear", "bilinear"], "metadata"),
        (lambda obj: set_gamma(obj, "1+", 7.0), ["verify", "linear", "bilinear"], "gamma"),
        (lambda obj: set_gamma(obj, "1+", -0.5), ["verify", "linear", "bilinear"], "gamma"),
        (lambda obj: set_gamma(obj, "1+", True), ["verify", "linear", "bilinear"], "gamma"),
        (lambda obj: set_gamma(obj, "1+", "0.5"), ["verify", "linear", "bilinear"], "gamma"),
        (lambda obj: set_dims(obj, "1+", "2", 2.9), ["verify", "linear", "bilinear"], "integers"),
        (lambda obj: set_dims(obj, "1+", True, 4), ["verify", "linear", "bilinear"], "integers"),
        (lambda obj: set_data(obj, "1+", "output", {0: ["0.5", True]}), ["verify", "linear", "bilinear"],
         "JSON numbers"),
        (lambda obj: set_data(obj, "1+", "input", {0: [7.0, 0.0]}), ["verify", "linear", "bilinear"],
         "'1+' input is not the state its label prepares"),
        (lambda obj: set_data(obj, "1+", "output", {0: [7.0, 0.0]}), ["verify", "linear", "bilinear"],
         "'1+' output is not Hermitian with unit trace"),
        (lambda obj: set_data(obj, "1+", "output", {1: [0.25, 0.0], 2: [-0.25, 0.0]}), ["verify", "linear", "bilinear"],
         "'1+' output is not Hermitian with unit trace"),
        (lambda obj: set_data(obj, "1+", "output", {1: [1e308, 0.0], 2: [1e308, -0.0]}), ["verify", "linear", "bilinear"],
         "'1+' output has a Bloch component outside [-1, 1]"),
        (input_of_record_1, ["verify", "linear", "bilinear"], "'1+' input is not the state its label prepares"),
        (equal_linear_inputs, ["linear"], "'1+' input is not the state its label prepares"),
        (lambda obj: set_data(obj, "mixed", "input", {0: [1.5, 0.0], 3: [-0.5, 0.0]}), ["verify", "linear", "bilinear"],
         "'mixed' input is not a density matrix"),
        (lambda obj: set_data(obj, "5-", "output", {2: [0.0, float("nan")]}), ["verify", "linear", "bilinear"],
         "record '5-' output: matrix JSON contains non-finite values"),
        (lambda obj: set_dims(obj, "3+", 3, 2), ["verify", "linear", "bilinear"],
         "record '3+' input: matrix shapes must all be 2x2 with 4 [re, im] pairs, got 3x2 with 4"),
        (lambda obj: drop_entries(obj, "4+", "input", 1), ["verify", "linear", "bilinear"],
         "record '4+' input: matrix shapes must all be 2x2 with 4 [re, im] pairs, got 2x2 with 3"),
        (lambda obj: set_label(obj, 1, 5), ["verify", "linear", "bilinear"], "record 1 has label 5, not a JSON string"),
    ],
    ids=["all-1x1", "one-3x3", "metadata-list", "gamma-7", "gamma-negative", "gamma-true", "gamma-string",
         "rows-string-cols-float", "rows-true", "entry-string-and-bool", "input-7", "output-7", "output-not-hermitian",
         "output-huge", "input-of-record-1", "equal-linear-inputs", "mixed-input-not-positive", "entry-nan", "rows-3", "data-short",
         "label-integer"],
)
def test_malformed_dataset_is_bad_config(edit, commands, word, tmp_path, capsys):
    path = write_dataset(tmp_path, edit(simulate(tmp_path, capsys)))
    for command in commands:
        argv = ["verify", path] if command == "verify" else ["tomo", path, "--mode", command]
        code, err = run(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert word in err, err


HUGE = [0] * 100_000  # a value whose repr runs to about 300 kB


@pytest.mark.parametrize(
    "command, edit, word",
    [
        ("simulate", lambda sc: {**sc, "t": HUGE}, "t must be a JSON number"),
        ("simulate", lambda sc: {**sc, "shots": HUGE}, "shots must be a JSON integer"),
        ("simulate", lambda sc: {**sc, "mixed_bloch": HUGE}, "mixed_bloch must be a list of three"),
        ("simulate", lambda sc: {**sc, "gamma0": {**sc["gamma0"], "bloch_a": [HUGE, 0.5, 0.0]}},
         "gamma0.bloch_a[0] must be a JSON number"),
        ("simulate", lambda sc: {**sc, "protocol": HUGE}, "protocol must be a JSON string, got list"),
        ("simulate", lambda sc: {**sc, "preparation": {"method": HUGE}}, "preparation.method must be a JSON string, got list"),
        ("verify", lambda obj: set_label(obj, 0, HUGE), "record 0 has label"),
        ("verify", lambda obj: set_gamma(obj, "1+", HUGE), "'1+' has gamma"),
        ("verify", lambda obj: set_data(obj, "1+", "output", {0: [HUGE, 0.0]}),
         "'1+' output: matrix entries must be JSON numbers"),
        ("verify", lambda obj: set_dims(obj, "1+", HUGE, 2), "'1+' input: matrix rows and cols"),
        ("verify", lambda obj: set_label(set_label(obj, 0, "x" * 10**6), 1, "x" * 10**6),
         "record labels must be unique"),
    ],
    ids=["t", "shots", "mixed_bloch", "bloch_a-entry", "protocol", "method", "label", "gamma", "entry", "rows",
         "repeated-label"],
)
def test_oversized_input_value_is_cut(command, edit, word, tmp_path, capsys):
    if command == "simulate":
        path = tmp_path / "big.json"
        path.write_text(json.dumps(edit(MEASUREMENT)))
    else:
        path = write_dataset(tmp_path, edit(simulate(tmp_path, capsys)))
    code, err = run([command, path], capsys)
    assert code == EXIT_BAD_CONFIG and word in err, err[:1000]
    assert len(err.encode()) <= 512, err[:1000]


@pytest.mark.parametrize(
    "option, value",
    [("--tol-linear", "nan"), ("--tol-linear", "-1"), ("--tol-bilinear", "inf"), ("--tol-bilinear", "-0.5")],
)
def test_tolerance_must_be_finite_and_non_negative(option, value, tmp_path, capsys):
    simulate(tmp_path, capsys)
    code, err = run(["verify", tmp_path / "dataset.json", option, value], capsys)
    assert code == EXIT_BAD_CONFIG
    assert option in err, err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "{scenario}", "--out", "{missing}"],
        ["tomo", "{dataset}", "--mode", "linear", "--out", "{missing}"],
        ["tomo", "{dataset}", "--mode", "bilinear", "--out", "{missing}"],
        ["verify", "{dataset}", "--out", "{missing}"],
        ["verify", "{dataset}", "--out", "{directory}"],
        ["demo", "imperfect-pin", "--out", "{dataset}"],
        ["simulate", "{scenario}", "--out", ""],
        ["tomo", "{dataset}", "--mode", "linear", "--out", ""],
        ["demo", "imperfect-pin", "--out", ""],
        # The open succeeds; the write fails, at the flush when the file is closed.
        pytest.param(["verify", "{dataset}", "--out", "/dev/full"],
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ],
    ids=["simulate-missing-dir", "linear-missing-dir", "bilinear-missing-dir", "verify-missing-dir",
         "verify-directory", "demo-onto-a-file", "simulate-empty", "linear-empty", "demo-empty", "verify-full"],
)
def test_unwritable_out_is_bad_config(command, tmp_path, capsys, monkeypatch):
    # An empty --out is neither stdout nor the working directory.
    monkeypatch.chdir(tmp_path)
    simulate(tmp_path, capsys)
    before = sorted(tmp_path.iterdir())
    paths = {
        "scenario": tmp_path / "scenario.json",
        "dataset": tmp_path / "dataset.json",
        "missing": tmp_path / "missing" / "x.json",
        "directory": tmp_path,
    }
    code, err = run([arg.format(**paths) for arg in command], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "cannot write" in err, err
    if "/dev/full" in command:
        assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command",
    [["simulate", ""], ["tomo", "", "--mode", "linear"], ["verify", ""]],
    ids=["simulate", "tomo", "verify"],
)
def test_empty_input_path_is_no_file(command, tmp_path, capsys, monkeypatch):
    # An empty path names no file; Path("") would read it as ".", the working directory.
    monkeypatch.chdir(tmp_path)
    code, err = run(command, capsys)
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: cannot read JSON from : ") and "Is a directory" not in err, err
    assert capsys.readouterr().out == ""


BUNDLE_FILES = ("scenario.json", "dataset.json", "linear_map.json", "m_elements.json", "report.json", "analysis.json")


def write_chain(directory, capsys):
    """simulate, both tomo modes, verify and demo with every --out in `directory`; their names."""
    d = {name: directory / f"{name}.json" for name in ("dataset", "linear", "bilinear", "report")}
    for argv in (
        ["simulate", directory / "scenario.json", "--out", d["dataset"]],
        ["tomo", d["dataset"], "--mode", "linear", "--out", d["linear"]],
        ["tomo", d["dataset"], "--mode", "bilinear", "--out", d["bilinear"]],
        ["verify", d["dataset"], "--out", d["report"]],
        ["demo", "imperfect-pin", "--out", directory / "bundle"],
    ):
        assert run(argv, capsys)[0] == EXIT_OK
    return [*(f"{name}.json" for name in d), *(f"bundle/{name}" for name in BUNDLE_FILES)]


def chain_dirs(tmp_path):
    fresh, junk = tmp_path / "fresh", tmp_path / "junk"
    for directory in (fresh, junk):
        (directory / "bundle").mkdir(parents=True)
        (directory / "scenario.json").write_text(jsonio.dumps(MEASUREMENT))
    return fresh, junk


def test_shorter_artifact_over_a_longer_file_leaves_no_tail(tmp_path, capsys):
    fresh, junk = chain_dirs(tmp_path)
    names = write_chain(fresh, capsys)
    for name in names:
        (junk / name).write_bytes(bytes(range(256)) * 12_000)  # 3 MB, longer than any artifact
    assert write_chain(junk, capsys) == names
    for name in names:
        assert (junk / name).read_bytes() == (fresh / name).read_bytes(), name


def test_out_is_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    fresh, junk = chain_dirs(tmp_path)
    names = write_chain(fresh, capsys)
    for name in names:
        (junk / name).write_bytes((fresh / name).read_bytes() * 2)
    opened, os_open = [], os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((Path(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    write_chain(junk, capsys)
    assert {junk / name for name in names} <= {path for path, _ in opened}
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


def test_overwrite_keeps_inode_mode_and_symlink(tmp_path, capsys):
    simulate(tmp_path, capsys)
    dataset = tmp_path / "dataset.json"
    report, target, link = tmp_path / "report.json", tmp_path / "target.json", tmp_path / "link.json"
    report.write_bytes(b"x" * 100_000)
    report.chmod(0o600)
    inode = report.stat().st_ino
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target.name)
    for out in (report, link):
        assert run(["verify", dataset, "--out", out], capsys)[0] == EXIT_OK
    assert (report.stat().st_ino, report.stat().st_mode & 0o777) == (inode, 0o600)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == report.read_bytes()
    assert json.loads(report.read_text())["verdict"] == "Bilinear"


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/null and /dev/stdout")
def test_non_regular_out_is_written_untruncated(tmp_path, capsys):
    simulate(tmp_path, capsys)
    dataset = tmp_path / "dataset.json"
    assert run(["tomo", dataset, "--mode", "linear", "--out", "/dev/null"], capsys) == (EXIT_OK, "")
    assert main(["tomo", str(dataset), "--mode", "linear"]) == EXIT_OK
    expected = capsys.readouterr().out
    # Through a pipe: ftruncate would fail on it.
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "procmap.cli", "tomo", dataset, "--mode", "linear", "--out", "/dev/stdout"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected)


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # Options given to one call must not carry over to the next.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(jsonio.dumps(MEASUREMENT))
    shots, exact = tmp_path / "shots.json", tmp_path / "exact.json"
    assert run(["simulate", scenario, "--shots", 1000, "--seed", 7, "--out", shots], capsys) == (EXIT_OK, "")
    assert run(["simulate", scenario, "--out", exact], capsys) == (EXIT_OK, "")
    assert json.loads(shots.read_text())["metadata"]["shots"] == "1000"
    digest = hashlib.sha256(scenario.read_bytes()).hexdigest()
    fresh = simulate_scenario(parse_scenario(MEASUREMENT, name="scenario"), digest)
    assert exact.read_text() == jsonio.dumps(fresh.to_json())

    loose, default = tmp_path / "loose.json", tmp_path / "default.json"
    assert run(["verify", exact, "--tol-linear", 0.5, "--out", loose], capsys) == (EXIT_OK, "")
    assert run(["verify", exact, "--out", default], capsys) == (EXIT_OK, "")
    assert json.loads(loose.read_text())["thresholds"]["linear"] == 0.5
    assert json.loads(default.read_text())["thresholds"] == {"linear": 1e-6, "bilinear": 1e-6}


PARSE_CASES = {
    "none": [],
    "help": ["-h"],
    "help-long": ["--help"],
    "help-before-command": ["-h", "verify"],
    "unknown-command": ["bogus", "d.json"],
    "option-first": ["--out", "x", "verify", "d.json"],
    "command-help": ["verify", "-h"],
    "command-help-after-args": ["tomo", "d.json", "--mode", "linear", "--help"],
    "missing-positional": ["verify"],
    "missing-required-option": ["tomo", "d.json"],
    "missing-option-value": ["verify", "d.json", "--tol-linear"],
    "bad-type": ["simulate", "s.json", "--shots", "many"],
    "bad-choice": ["tomo", "d.json", "--mode", "cubic"],
    "leftover-positional": ["verify", "d.json", "extra"],
    "leftover-option": ["verify", "d.json", "--bogus", "1"],
    "leftovers-and-missing": ["demo", "--zz"],
    "leftover-after-dashes": ["verify", "d.json", "--", "extra"],
    "dashes-before-command": ["--", "verify", "d.json"],
    "dashes-after-command": ["verify", "--", "d.json"],
    "abbreviated-option": ["verify", "d.json", "--tol-l", "0.5"],
    "ambiguous-abbreviation": ["verify", "d.json", "--tol", "0.5"],
    "equals-form": ["tomo", "d.json", "--mode=bilinear", "--out=o.json"],
    "negative-number": ["simulate", "s.json", "--shots", "-5", "--seed", "-1"],
    "repeated-option": ["simulate", "s.json", "--seed", "1", "--seed", "2"],
    "full": ["verify", "d.json", "--tol-linear", "1e-3", "--tol-bilinear", "2e-3", "--out", "r.json"],
    "demo": ["demo", "imperfect-pin", "--out", "bundle"],
}


def parse_outcome(parse, argv, capsys) -> tuple:
    """(exit code, namespace, stdout, stderr) of one parse; the code is None when it returned."""
    try:
        code, namespace = None, parse(None if argv is None else list(argv))
    except SystemExit as exc:
        code, namespace = exc.code, None
    return (code, namespace, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES)
def test_command_parsing_matches_the_top_level_parser(argv, capsys, monkeypatch):
    expected = parse_outcome(cli._build_parsers()[0].parse_args, argv, capsys)
    assert parse_outcome(cli._parse_args, argv, capsys) == expected
    monkeypatch.setattr(sys, "argv", ["procmap", *argv])
    assert parse_outcome(cli._parse_args, None, capsys) == expected


def test_leftover_arguments_are_reported_by_the_top_level_parser(capsys):
    code, _, out, err = parse_outcome(cli._parse_args, ["verify", "d.json", "extra", "--bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: procmap [-h]")
    assert err.endswith("procmap: error: unrecognized arguments: extra --bogus\n")


def test_unknown_demo_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # The demo name parses as any string; the command refuses it before it writes a bundle.
    monkeypatch.chdir(tmp_path)
    code, out, err = in_process(["demo", "nope"], capsys)
    assert (code, out, err.count("\n")) == (EXIT_BAD_CONFIG, "", 1)
    assert err.startswith("error: unknown demo 'nope'; expected one of stochastic-heisenberg"), err
    assert list(tmp_path.iterdir()) == []


def test_missing_label_exits_4(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    obj["records"] = [r for r in obj["records"] if r["label"] != "6-"]
    assert run(["verify", write_dataset(tmp_path, obj)], capsys)[0] == EXIT_MISSING_LABELS


def test_huge_record_input_exits_2_at_once(tmp_path, capsys):
    # Unchecked, a 1e300 input overflows the bi-linear fit's design and its least-squares solve may never
    # return; in a subprocess the timeout turns such a hang into a failure.
    path = write_dataset(tmp_path, set_data(simulate(tmp_path, capsys), "1+", "input", {0: [1e300, 0.0]}))
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1])}
    argv = [sys.executable, "-W", "error", "-m", "procmap.cli", "verify", path]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr.count("\n") == 1 and "'1+' input is not the state its label prepares" in proc.stderr, proc.stderr


@pytest.mark.parametrize("demo", ["stochastic-heisenberg", "measurement-correlated", "imperfect-pin"])
def test_finite_shot_datasets_load(demo):
    for shots in (1000, 100000):
        for seed in range(50):
            config = {**demo_scenario_config(demo), "shots": shots, "seed": seed}
            dataset = simulate_scenario(parse_scenario(config, name=demo))
            assert dataset.metadata["shots"] == str(shots)
            Dataset.from_json(json.loads(jsonio.dumps(dataset.to_json())))


@pytest.mark.parametrize(
    "demo, emitted",
    [("measurement-correlated", True), ("stochastic-heisenberg", False), ("imperfect-pin", False)],
)
def test_oracle_comparison_only_for_measurement_preparation(demo, emitted, tmp_path, capsys):
    simulate(tmp_path, capsys, demo=demo)
    out = tmp_path / "bilinear.json"
    assert run(["tomo", tmp_path / "dataset.json", "--mode", "bilinear", "--out", out], capsys)[0] == EXIT_OK
    payload = json.loads(out.read_text())
    assert ("oracle_comparison" in payload) == emitted
    if emitted:
        assert payload["oracle_comparison"]["max_element_deviation"] < 1e-10


def tomo_bilinear_output(tmp_path, capsys, obj):
    """`tomo --mode bilinear` on the dataset `obj`; returns (exit code, stderr, output file text)."""
    out = tmp_path / "bilinear.json"
    out.unlink(missing_ok=True)
    code, err = run(["tomo", write_dataset(tmp_path, obj), "--mode", "bilinear", "--out", out], capsys)
    return code, err, out.read_text() if code == EXIT_OK else None


def assert_tomo_ignores_metadata(tmp_path, capsys, changes):
    """`tomo --mode bilinear` writes the same bytes after `changes` to the metadata; None deletes a key."""
    obj = simulate(tmp_path, capsys)
    code, _, want = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_OK and "oracle_comparison" in json.loads(want)
    for key, value in changes.items():
        if value is None:
            del obj["metadata"][key]
        else:
            obj["metadata"][key] = value
    assert tomo_bilinear_output(tmp_path, capsys, obj) == (EXIT_OK, "", want)


@pytest.mark.parametrize("digest", ["not a digest", None], ids=["corrupt", "absent"])
def test_scenario_digest_is_never_read(digest, tmp_path, capsys):
    assert_tomo_ignores_metadata(tmp_path, capsys, {"scenario_sha256": digest})


@pytest.mark.parametrize("text", ["{", "[]", ""], ids=["brace", "array", "empty"])
def test_corrupt_embedded_scenario_is_ignored(text, tmp_path, capsys):
    # A dataset written before the digest carries the scenario text as
    # `scenario_json`; it still loads, and nothing decodes that text.
    assert_tomo_ignores_metadata(tmp_path, capsys, {"scenario_sha256": None, "scenario_json": text})


@pytest.mark.parametrize(
    "oracle",
    [
        "oracle",
        {"rows": 9, "cols": 4, "data": [[0.0, 0.0]] * 36},
        {"rows": 10, "cols": 4, "data": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 39},
        {"rows": 10, "cols": 4},
        None,
    ],
    ids=["string", "9x4", "nan", "no-data", "absent"],
)
def test_malformed_oracle_is_bad_config(oracle, tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    assert (obj["oracle"]["rows"], obj["oracle"]["cols"]) == (10, 4)
    if oracle is None:
        del obj["oracle"]
    else:
        obj["oracle"] = oracle
    code, err, out = tomo_bilinear_output(tmp_path, capsys, obj)
    if oracle is None:  # no oracle means no comparison, as for other preparations
        assert code == EXIT_OK and "oracle_comparison" not in json.loads(out)
    else:
        assert code == EXIT_BAD_CONFIG
        assert "oracle" in err, err


@pytest.mark.parametrize("demo", ["measurement-correlated", "stochastic-heisenberg", "imperfect-pin"])
def test_oracle_decodes_only_measurement_datasets(demo, tmp_path, capsys, monkeypatch):
    # simulate stores the oracle; tomo decodes that matrix and never the embedded scenario.
    assert ("oracle" in simulate(tmp_path, capsys, demo=demo)) == (demo == "measurement-correlated")
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return parse_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_scenario", counting_parse)
    assert run(["tomo", tmp_path / "dataset.json", "--mode", "bilinear"], capsys)[0] == EXIT_OK
    assert calls == []


def test_stored_oracle_detects_a_perturbed_record(tmp_path, capsys):
    # The oracle comes from (U, gamma0), not from the records, so it still checks the fit.
    obj = simulate(tmp_path, capsys)
    record = next(rec for rec in obj["records"] if rec["label"] == "4+")
    record["output"]["data"][1][0] += 1e-3  # Re Q[0, 1] and Re Q[1, 0]: Q stays Hermitian
    record["output"]["data"][2][0] += 1e-3
    code, _, out = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_OK
    assert json.loads(out)["oracle_comparison"]["max_element_deviation"] > 1e-4


def test_each_dataset_content_is_decoded_once(tmp_path, capsys, decodes):
    simulate(tmp_path, capsys)
    cli._datasets.clear()  # what simulate kept
    dataset = tmp_path / "dataset.json"
    for argv in (["tomo", dataset, "--mode", "linear"], ["tomo", dataset, "--mode", "bilinear"], ["verify", dataset]):
        assert run(argv, capsys)[0] == EXIT_OK
    assert len(decodes) == 1


# Each demo exact and at 1000 shots, and a generalized preparation: what `simulate --out` keeps for later reads.
WRITE_THROUGH = {
    **{f"{demo}-{tag}": (demo_scenario_config(demo), extra) for demo in DEMO_NAMES
       for tag, extra in (("exact", []), ("shots", ["--shots", "1000", "--seed", "5"]))},
    "generalized": (generalized(1.0), []),
}


def simulate_write_through(case, tmp_path, capsys) -> Path:
    config, extra = WRITE_THROUGH[case]
    scenario, dataset = tmp_path / "scenario.json", tmp_path / "dataset.json"
    scenario.write_text(jsonio.dumps(config))
    assert run(["simulate", scenario, "--out", dataset, *extra], capsys) == (EXIT_OK, "")
    return dataset


@pytest.mark.parametrize("case", sorted(WRITE_THROUGH))
def test_simulate_keeps_the_dataset_a_read_decodes(case, tmp_path, capsys, decodes):
    path = simulate_write_through(case, tmp_path, capsys)
    for argv in (["tomo", path, "--mode", "linear"], ["tomo", path, "--mode", "bilinear"], ["verify", path]):
        assert run(argv, capsys)[0] == EXIT_OK
    assert decodes == []
    raw = path.read_bytes()
    kept, decoded = cli._datasets[raw], Dataset.from_json(json.loads(raw))
    assert list(cli._datasets) == [raw] and kept.labels == decoded.labels
    for name in ("inputs", "outputs", "gammas", "oracle"):
        got, want = getattr(kept, name), getattr(decoded, name)
        if want is None:  # no oracle
            assert got is None
            continue
        assert (got.tobytes(), got.dtype, got.shape) == (want.tobytes(), want.dtype, want.shape), name
        assert not got.flags.writeable and not want.flags.writeable, name
    assert type(kept.metadata) is type(decoded.metadata) is types.MappingProxyType
    assert list(kept.metadata.items()) == list(decoded.metadata.items())


@pytest.mark.parametrize("case", sorted(WRITE_THROUGH))
def test_simulate_keeps_no_dataset_a_read_refuses(case, tmp_path, capsys, monkeypatch):
    # simulate runs the checks every read runs, so what a read refuses simulate refuses, writing and keeping nothing.
    def refuse(labels, mats, exact):
        raise ValueError("record '1+' output is refused")

    monkeypatch.setattr(records, "_check_states", refuse)
    config, extra = WRITE_THROUGH[case]
    scenario, path = tmp_path / "scenario.json", tmp_path / "dataset.json"
    scenario.write_text(jsonio.dumps(config))
    diagnostic = "error: malformed dataset: record '1+' output is refused\n"
    assert run(["simulate", scenario, "--out", path, *extra], capsys) == (EXIT_BAD_CONFIG, diagnostic)
    assert not path.exists() and cli._datasets == {}


# gamma0 has the eigenvalue -2e-11, within STATE_TOL, so measuring 3- has probability 1e-11 and its output
# Bloch z = 5: a dataset every read refuses.
UNREADABLE_OUTPUT = {**STOCHASTIC, "t": np.pi / 4, "preparation": {"method": "measurement"},
                     "gamma0": jsonio.matrix_to_json(np.diag([0.5, 0.5 - 1e-11, 3e-11, -2e-11]).astype(complex))}


@pytest.mark.parametrize("out", ["absent", "existing", "stdout"])
@pytest.mark.parametrize("where", ["process", "main"])
def test_simulate_refuses_a_dataset_every_read_refuses(where, out, tmp_path, capsys, monkeypatch):
    (tmp_path / "scenario.json").write_text(jsonio.dumps(UNREADABLE_OUTPUT))
    target = tmp_path / "dataset.json"
    if out == "existing":
        target.write_bytes(b"an earlier artifact\n")
    argv = ["simulate", "scenario.json", *(["--out", "dataset.json"] if out != "stdout" else [])]
    if where == "process":
        code, stdout, err = cli_process(argv, cwd=tmp_path, stdout=subprocess.PIPE)
    else:
        monkeypatch.chdir(tmp_path)
        code, stdout, err = in_process(argv, capsys)
    assert (code, stdout) == (EXIT_BAD_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "record '3-'" in err, err
    if out == "existing":
        assert target.read_bytes() == b"an earlier artifact\n"
    else:
        assert not target.exists()
    assert cli._datasets == {}


def not_a_state_output() -> dict:
    """Measurement preparation on gamma0 = |0><0| (x) (1 - 1e-9) 1/2 + |1><1| (x) 1e-9 rho_B, rho_B of Bloch vector
    1.04 (1, 1, 1) / sqrt(3), at t = pi/4.  gamma0's eigenvalue -2e-11 is within STATE_TOL; record 3- gets gamma 1e-9
    and an output of eigenvalues -0.02 and 1.02, whose Bloch components (about 0.6 each) all lie in [-1, 1]."""
    rho_b = state_from_bloch(1.04 * np.ones(3) / np.sqrt(3.0))
    gamma0 = np.kron(np.diag([1.0, 0.0]), (1.0 - 1e-9) * np.eye(2) / 2.0) + np.kron(np.diag([0.0, 1.0]), 1e-9 * rho_b)
    return {**STOCHASTIC, "t": np.pi / 4, "preparation": {"method": "measurement"},
            "gamma0": jsonio.matrix_to_json(gamma0)}


@pytest.mark.parametrize("where", ["process", "main"])
def test_simulate_refuses_an_exact_output_that_is_not_a_state(where, tmp_path, capsys, monkeypatch):
    (tmp_path / "scenario.json").write_text(jsonio.dumps(not_a_state_output()))
    argv = ["simulate", "scenario.json", "--out", "dataset.json"]
    if where == "process":
        code, stdout, err = cli_process(argv, cwd=tmp_path, stdout=subprocess.PIPE)
    else:
        monkeypatch.chdir(tmp_path)
        code, stdout, err = in_process(argv, capsys)
    assert (code, stdout) == (EXIT_BAD_CONFIG, "")
    assert err == "error: malformed dataset: record '3-' output is not a state (deviation 2.000e-02)\n", err
    assert not (tmp_path / "dataset.json").exists()


@pytest.mark.parametrize("shots", ["exact", "1000"])
def test_only_an_exact_output_must_lie_in_the_bloch_ball(shots, tmp_path, capsys):
    # A shot estimate may leave the ball; an exact output of Bloch norm 1.01 is refused by every read.
    obj = simulate(tmp_path, capsys)
    obj["metadata"]["shots"] = shots
    obj["records"][0]["output"] = jsonio.matrix_to_json(state_from_bloch(1.01 * np.ones(3) / np.sqrt(3.0)))
    path = write_dataset(tmp_path, obj)
    for argv in (["tomo", path, "--mode", "linear"], ["tomo", path, "--mode", "bilinear"], ["verify", path]):
        code, err = run(argv, capsys)
        if shots == "exact":
            assert code == EXIT_BAD_CONFIG and "record '1+' output is not a state (deviation 5.000e-03)" in err, err
        else:
            assert code == EXIT_OK, err


def test_dataset_cache_keeps_the_four_contents_used_last(tmp_path, capsys, decodes):
    text = jsonio.dumps(simulate(tmp_path, capsys))
    cli._datasets.clear()
    raws = [(text + " " * i).encode() for i in range(5)]  # five contents, one dataset
    paths = [tmp_path / f"{i}.json" for i in range(5)]
    for path, raw in zip(paths, raws):
        path.write_bytes(raw)
    for i in (0, 1, 2, 3, 0, 4):  # reading 0 again leaves 1 the least recently used
        cli._read_dataset(str(paths[i]))
    assert list(cli._datasets) == [raws[2], raws[3], raws[0], raws[4]] and len(decodes) == 5


def test_a_changed_byte_is_decoded_afresh(tmp_path, capsys):
    # The same path, read again after one output entry moved, must give the new records' fit.
    obj = simulate(tmp_path, capsys)
    code, _, out = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_OK and json.loads(out)["oracle_comparison"]["max_element_deviation"] < 1e-10
    record = next(rec for rec in obj["records"] if rec["label"] == "4+")
    record["output"]["data"][1][0] += 1e-3
    record["output"]["data"][2][0] += 1e-3
    code, _, out = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_OK and json.loads(out)["oracle_comparison"]["max_element_deviation"] > 1e-4


def test_failures_are_not_cached_and_hits_do_not_depend_on_the_path(tmp_path, capsys, decodes):
    good = simulate(tmp_path, capsys)
    cli._datasets.clear()  # what simulate kept
    bad_bytes = {
        "cannot read JSON from": jsonio.dumps(good)[:-20].encode(),
        "malformed dataset": json.dumps(set_gamma(json.loads(jsonio.dumps(good)), "1+", 7.0)).encode(),
    }
    for words, raw in bad_bytes.items():
        for name in ("a.json", "b.json", "a.json"):
            path = tmp_path / name
            path.write_bytes(raw)
            code, err = run(["verify", path], capsys)
            assert code == EXIT_BAD_CONFIG and err.startswith(f"error: {words} {path}"), err
    assert cli._datasets == {}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        path.write_text(jsonio.dumps(good))
    decodes.clear()
    outputs = []
    for path in (first, second):
        assert main(["verify", str(path)]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert (2 - len(decodes), len(decodes), len(cli._datasets)) == (1, 1, 1)  # hits, misses, size
    assert outputs[0] == outputs[1] and outputs[1].err == ""
    assert first.name not in outputs[1].out


def test_cached_dataset_is_read_only(tmp_path, capsys):
    simulate(tmp_path, capsys)
    path, copy = tmp_path / "dataset.json", tmp_path / "copy.json"
    raw = path.read_bytes()
    copy.write_bytes(raw)
    for kept_by_simulate in (True, False):
        if not kept_by_simulate:
            cli._datasets.clear()
        kept = cli._datasets.get(raw)
        dataset = cli._read_dataset(str(path))
        assert cli._read_dataset(str(copy)) is dataset and (kept is dataset) == kept_by_simulate
        for stack in (dataset.inputs, dataset.outputs, dataset.gammas, dataset.oracle):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0.0
        with pytest.raises(TypeError):
            dataset.metadata["shots"] = "1"
        assert dataset.subset(LINEAR4_LABELS).to_json()["metadata"] == dict(dataset.metadata)


def test_pure_mixed_record_is_bad_config(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    records = {rec["label"]: rec for rec in obj["records"]}
    records["mixed"]["input"] = records["1+"]["input"]
    code, err, _ = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_BAD_CONFIG
    assert "'mixed'" in err, err


@pytest.mark.parametrize("shot_args", [[], ["--shots", 1000, "--seed", 7]], ids=["exact", "shots"])
def test_dataset_holds_the_scenario_file_digest(shot_args, tmp_path, capsys):
    config = {**PINNED, "t": 0.1, "note": "γ₀ = 0.7 |0⟩⟨0| ⊗ 1/2 + 0.3 χ"}
    # Shortest-repr floats are what procmap writes too, but CRLF line ends, a
    # one-space indent and non-ASCII text are not, so a digest of a re-encoding would differ.
    text = json.dumps(config, indent=1, ensure_ascii=False).replace("\n", "\r\n")
    assert text != jsonio.dumps(json.loads(text))
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(text.encode("utf-8"))
    dataset = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--out", dataset, *shot_args], capsys) == (EXIT_OK, "")
    metadata = json.loads(dataset.read_text())["metadata"]
    assert metadata["scenario_sha256"] == hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert "scenario_json" not in metadata
    assert (metadata["shots"], metadata["seed"]) == (("1000", "7") if shot_args else ("exact", ""))


def test_oracle_holds_on_a_random_wide_measurement_scenario(tmp_path, capsys):
    rng = np.random.default_rng(8)
    dim = 2 * 8
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = a @ a.conj().T
    config = {
        "dimA": 2,
        "dimB": 8,
        "hamiltonian": jsonio.matrix_to_json(a + a.conj().T),
        "t": 0.3,
        "gamma0": jsonio.matrix_to_json(g / np.trace(g).real),
        "preparation": {"method": "measurement"},
        "protocol": "verify12",
    }
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps(config))  # without the trailing newline of procmap's own files
    dataset, out = tmp_path / "dataset.json", tmp_path / "bilinear.json"
    assert run(["simulate", scenario, "--out", dataset], capsys) == (EXIT_OK, "")
    assert run(["tomo", dataset, "--mode", "bilinear", "--out", out], capsys)[0] == EXIT_OK
    assert json.loads(out.read_text())["oracle_comparison"]["max_element_deviation"] < 1e-10


def simulate_shots(tmp_path, capsys, shots, seed, name):
    """Finite-shot `simulate` of the measurement demo; returns the dataset file's text."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(jsonio.dumps(demo_scenario_config("measurement-correlated")))
    out = tmp_path / name
    argv = ["simulate", scenario, "--shots", shots, "--seed", seed, "--out", out]
    assert run(argv, capsys) == (EXIT_OK, "")
    return out.read_text()


@pytest.mark.parametrize("shots, code", [(2**63 - 1, EXIT_OK), (2**70, EXIT_BAD_CONFIG)], ids=["2**63-1", "2**70"])
def test_shot_override_fits_the_binomial_sampler(shots, code, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(jsonio.dumps(demo_scenario_config("measurement-correlated")))
    got, err = run(["simulate", scenario, "--shots", shots, "--out", tmp_path / "dataset.json"], capsys)
    assert got == code and ("shots" in err) == (code != EXIT_OK), err


def test_finite_shot_dataset_is_seeded(tmp_path, capsys):
    first = simulate_shots(tmp_path, capsys, 1000, 7, "a.json")
    assert simulate_shots(tmp_path, capsys, 1000, 7, "b.json") == first
    assert simulate_shots(tmp_path, capsys, 1000, 8, "c.json") != first
    metadata = json.loads(first)["metadata"]
    assert (metadata["shots"], metadata["seed"]) == ("1000", "7")


def test_finite_shot_dataset_re_emits_byte_for_byte(tmp_path, capsys):
    raw = simulate_shots(tmp_path, capsys, 1000, 7, "dataset.json")
    assert jsonio.dumps(Dataset.from_json(json.loads(raw)).to_json()) == raw


def test_finite_shot_outputs_are_shot_counts(tmp_path, capsys):
    obj = json.loads(simulate_shots(tmp_path, capsys, 1000, 7, "dataset.json"))
    gammas = {}
    for rec in obj["records"]:
        ups = 500.0 * bloch_vector(jsonio.matrix_from_json(rec["output"])) + 500.0
        assert np.max(np.abs(ups - np.round(ups))) < 1e-9, rec["label"]
        gammas[rec["label"]] = rec["gamma"]
    for direction in "123456":
        assert gammas[f"{direction}+"] + gammas[f"{direction}-"] == pytest.approx(1.0, abs=1e-12)


def test_mixed_record_gamma_is_a_shot_count(tmp_path, capsys):
    exact = next(rec["gamma"] for rec in simulate(tmp_path, capsys)["records"] if rec["label"] == "mixed")
    assert abs(1000.0 * exact - round(1000.0 * exact)) > 0.1  # the exact 0.3125 is no count of 1000 shots
    obj = json.loads(simulate_shots(tmp_path, capsys, 1000, 3, "shots.json"))
    gamma = next(rec["gamma"] for rec in obj["records"] if rec["label"] == "mixed")
    assert abs(1000.0 * gamma - round(1000.0 * gamma)) < 1e-9, gamma


def test_generalized_preparation_gammas_are_shot_counts(tmp_path, capsys):
    scenario = tmp_path / "generalized.json"
    scenario.write_text(json.dumps(generalized(1.0)))
    out = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--shots", 100, "--seed", 3, "--out", out], capsys) == (EXIT_OK, "")
    gammas = [rec["gamma"] for rec in json.loads(out.read_text())["records"]]
    assert len(gammas) == 12 and len(set(gammas)) > 1  # a draw, not the exact 1/12 each
    assert all(abs(100.0 * g - round(100.0 * g)) < 1e-9 for g in gammas), gammas
    assert sum(gammas) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad_labels, named", [(("4-",), "4-"), (("5+", "2-"), "2-")])
def test_zero_probability_outcome_exits_3_naming_the_first_label(tmp_path, capsys, bad_labels, named):
    # The stacked preparation checks every record and names the first offender in label order (1+, 1-, 2+, ...),
    # not in the measurement's outcome order, where 5+ comes before 2-.
    scenario = tmp_path / "excluding.json"
    scenario.write_text(json.dumps(excluding(bad_labels)))
    code, err = run(["simulate", scenario], capsys)
    assert code == EXIT_ZERO_PROBABILITY
    assert f"preparation {named} has probability 0.000e+00" in err
    assert all(label not in err for label in bad_labels if label != named), err


def test_over_complete_generalized_measurement_draws_shots(tmp_path, capsys):
    # Complete within STATE_TOL but over-complete: the exact gammas sum above 1, which multinomial refuses raw.
    scenario = tmp_path / "over-complete.json"
    scenario.write_text(json.dumps(over_complete()))
    out = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--out", out], capsys) == (EXIT_OK, "")
    assert sum(rec["gamma"] for rec in json.loads(out.read_text())["records"]) > 1.0
    assert run(["simulate", scenario, "--shots", 1000, "--seed", 0, "--out", out], capsys) == (EXIT_OK, "")
    gammas = [rec["gamma"] for rec in json.loads(out.read_text())["records"]]
    assert all(abs(1000.0 * g - round(1000.0 * g)) < 1e-9 for g in gammas), gammas
    assert sum(gammas) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "error, code",
    [
        (ScenarioError, EXIT_BAD_CONFIG),
        (InvalidMeasurement, EXIT_BAD_CONFIG),
        (ZeroProbabilityOutcome, EXIT_ZERO_PROBABILITY),
        (NotStrictlyMixed, EXIT_BAD_CONFIG),
        (ZeroGamma, EXIT_ZERO_PROBABILITY),
        (MissingRecord, EXIT_MISSING_LABELS),
        (NotAFrame, EXIT_NOT_A_FRAME),
    ],
)
def test_each_error_carries_its_exit_code(error, code):
    assert issubclass(error, procmap.ProcmapError)
    assert error.exit_code == code


def four_equal_inputs() -> Dataset:
    """The linear protocol's labels, each record holding the input and output of 1+."""
    state = state_of_label("1+")
    return Dataset(LINEAR4_LABELS, [state] * 4, [state] * 4, [1.0] * 4)


# The raise sites that no CLI input reaches, each met through the Python call that guards it.
@pytest.mark.parametrize(
    "call, error, words",
    [
        (lambda: ProcessSpec(u=np.eye(3), gamma0=np.eye(3) / 3.0), ValueError,
         "unitary has shape (3, 3), not a multiple of the system dimension 2"),
        (lambda: reconstruct_linear_map(four_equal_inputs()), NotAFrame,
         "inputs are not a tomography frame (rank 1 of 4"),
        (lambda: apply_linear_map(np.eye(4), np.eye(3) / 3.0), ValueError, "state has shape (3, 3), expected (2, 2)"),
        (lambda: bloch_vector(np.eye(3)), ValueError, "expected a 2x2 matrix, got shape (3, 3)"),
        (lambda: validate_density_matrix(np.ones((2, 3))), ValueError,
         "density matrix must be square, got shape (2, 3)"),
        (lambda: validate_unitary(np.ones((2, 3))), ValueError, "unitary must be square, got shape (2, 3)"),
        (lambda: fit(four_equal_inputs(), degree=3), ValueError, "fit degree must be 1 or 2, got 3"),
        # A NaN matrix fails the first tolerance test, not inside numpy's eigensolver.
        (lambda: validate_density_matrix(np.full((2, 2), np.nan)), ValueError,
         "density matrix not Hermitian (residual nan)"),
        (lambda: ProcessSpec(u=np.eye(4), gamma0=np.full((4, 4), np.nan)), ValueError,
         "gamma0 not Hermitian (residual nan)"),
        (lambda: unitary_from_hamiltonian(np.full((4, 4), np.nan), 1.0), ValueError,
         "hamiltonian is not Hermitian within tolerance"),
        (lambda: bloch_vector(np.full((2, 2), np.nan)), ValueError, "matrix is not Hermitian within tolerance"),
    ],
    ids=["process-spec-3x3", "not-a-frame", "apply-3x3", "bloch-3x3", "density-not-square", "unitary-not-square",
         "fit-degree-3", "density-nan", "process-spec-gamma0-nan", "hamiltonian-nan", "bloch-nan"],
)
def test_api_only_guard_raises(call, error, words):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and words in str(caught.value), caught.value
    if error is NotAFrame:
        assert caught.value.exit_code == EXIT_NOT_A_FRAME == 5


class Terminal(io.StringIO):
    """A stderr that says it is a terminal."""

    def isatty(self) -> bool:
        return True


@pytest.mark.parametrize("no_color, prefix", [(None, "\x1b[31merror:\x1b[0m "), ("1", "error: ")],
                         ids=["color", "no-color"])
def test_diagnostic_on_a_terminal_is_red_unless_no_color(no_color, prefix, tmp_path, monkeypatch):
    terminal = Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    if no_color is None:
        monkeypatch.delenv("PROCMAP_NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("PROCMAP_NO_COLOR", no_color)
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == EXIT_BAD_CONFIG
    text = terminal.getvalue()
    assert text.startswith(f"{prefix}cannot read JSON from {missing}: ") and text.count("\n") == 1, text


def test_demo_loads_no_scipy(tmp_path):
    # numpy is the only dependency; scipy may be installed, but nothing may import it.
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1])}
    argv = [sys.executable, "-X", "importtime", "-m", "procmap.cli", "demo", "imperfect-pin", "--out", tmp_path / "demo"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"numpy", "procmap.scenarios"} <= imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_cli_import_loads_no_hashlib():
    # Only simulate and demo make a digest, so tomo and verify need not load OpenSSL's _hashlib.
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1])}
    code = "import sys, procmap.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def cli_process(argv, cwd=None, unbuffered=False, **kwargs):
    """`python -m procmap.cli argv` in a fresh interpreter: its exit code, stdout and stderr as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(procmap.__file__).resolve().parents[1]), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "procmap.cli", *map(str, argv)], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, timeout=120, **kwargs)
    return proc.returncode, (proc.stdout or b"").decode(), proc.stderr.decode()


def in_process(argv, capsys):
    """`main(argv)` in this interpreter: its exit code (argparse's SystemExit included), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error or -h
        code = exc.code
    assert gc.get_freeze_count() == 0, argv  # only run() freezes: in-process callers keep a collectable heap
    return (code, *capsys.readouterr())


# One command of each kind, with paths relative to the directory it runs in; their order is a chain.
ENTRY_POINT_CASES = {
    **{f"demo-{name}": ["demo", name, "--out", f"bundle-{name}"] for name in DEMO_NAMES},
    "simulate": ["simulate", "scenario.json", "--out", "dataset.json"],
    "tomo-linear": ["tomo", "dataset.json", "--mode", "linear", "--out", "linear.json"],
    "tomo-bilinear": ["tomo", "dataset.json", "--mode", "bilinear", "--out", "bilinear.json"],
    "verify": ["verify", "dataset.json", "--out", "report.json"],
    "tomo-stdout": ["tomo", "dataset.json", "--mode", "bilinear"],
    "verify-stdout": ["verify", "dataset.json"],
    "exit-2": ["verify", "nan-gamma.json"],
    "exit-3": ["tomo", "zero-gamma.json", "--mode", "bilinear"],
    "exit-4": ["verify", "missing-label.json"],
    "exit-2-simulate": ["simulate", "unreadable-output.json", "--out", "refused.json"],
    "exit-2-matrix": ["verify", "string-entry.json"],
    "usage-error": ["tomo", "dataset.json"],
    "help": ["-h"],
}


def test_entry_point_matches_in_process_main(tmp_path, capsys, monkeypatch):
    # Exit code 5 (NotAFrame) has no case: the dataset checks pin every protocol input, so no file reaches it.
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    edits = {
        "nan-gamma.json": lambda obj: set_gamma(obj, "2+", float("nan")),
        "zero-gamma.json": lambda obj: set_gamma(obj, "1+", 0.0),
        "missing-label.json": lambda obj: {**obj, "records": [r for r in obj["records"] if r["label"] != "6-"]},
        "string-entry.json": lambda obj: set_data(obj, "3-", "output", {1: ["0.5", 0.0]}),
    }
    for name, edit in edits.items():
        (inputs / name).write_text(json.dumps(edit(simulate(inputs, capsys))))
    (inputs / "dataset.json").unlink()
    (inputs / "unreadable-output.json").write_text(jsonio.dumps(UNREADABLE_OUTPUT))
    process, in_main = tmp_path / "process", tmp_path / "main"
    shutil.copytree(inputs, process)
    shutil.copytree(inputs, in_main)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps -h to it, as in cli_process
    expected = {case: cli_process(argv, cwd=process, stdout=subprocess.PIPE) for case, argv in ENTRY_POINT_CASES.items()}
    monkeypatch.chdir(in_main)
    outcomes = {case: in_process(argv, capsys) for case, argv in ENTRY_POINT_CASES.items()}
    assert outcomes == expected
    assert {case: code for case, (code, _, _) in outcomes.items() if code} == {
        "exit-2": 2, "exit-3": 3, "exit-4": 4, "exit-2-simulate": 2, "exit-2-matrix": 2, "usage-error": 2}
    # Decoded in both: the entry point reads the file afresh, and in process no simulate wrote these bytes.
    assert outcomes["exit-2-matrix"][1:] == ("", "error: malformed dataset string-entry.json: "
                                                 "record '3-' output: matrix entries must be JSON numbers, got '0.5'\n")
    files = sorted(p.relative_to(process) for p in process.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(in_main) for p in in_main.rglob("*") if p.is_file())
    assert len(files) == 6 + 4 + 3 * len(BUNDLE_FILES)  # no refused.json
    for name in files:
        assert (process / name).read_bytes() == (in_main / name).read_bytes(), name


def test_run_freezes_the_heap_and_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["procmap", "verify", str(tmp_path / "missing.json")])
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert (exit_.value.code, gc.get_freeze_count() > 0) == (EXIT_BAD_CONFIG, True)
    finally:
        gc.unfreeze()
    assert capsys.readouterr().err.startswith("error: cannot read JSON from ")


def closed_pipe() -> dict:
    read, write = os.pipe()
    os.close(read)
    return {"stdout": write}


# How the child's stdout fails: the errno it must report, and the subprocess.run arguments that set it up.
STDOUT_FAULTS = {
    "closed-pipe": (errno.EPIPE, closed_pipe),
    "dev-full": (errno.ENOSPC, lambda: {"stdout": os.open("/dev/full", os.O_WRONLY)}),
    "closed-fd": (errno.EBADF, lambda: {"preexec_fn": lambda: os.close(1)}),
}


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fault", STDOUT_FAULTS)
@pytest.mark.parametrize(
    "argv",
    [["simulate", "scenario.json"], ["tomo", "dataset.json", "--mode", "linear"], ["verify", "dataset.json"],
     ["demo", "imperfect-pin", "--out", "bundle"]],
    ids=["simulate", "tomo", "verify", "demo"],
)
def test_unwritable_stdout_is_one_line_exit_2(argv, fault, unbuffered, tmp_path, capsys):
    simulate(tmp_path, capsys)
    error, kwargs = STDOUT_FAULTS[fault]
    kwargs = kwargs()
    try:
        outcome = cli_process(argv, cwd=tmp_path, unbuffered=unbuffered, **kwargs)
    finally:
        if "stdout" in kwargs:
            os.close(kwargs["stdout"])
    assert outcome == (EXIT_BAD_CONFIG, "", f"error: cannot write stdout: {os.strerror(error)}\n")
