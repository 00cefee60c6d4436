"""The CLI surface through `main(argv)`: exit codes, one-line diagnostics, oracle block."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import procmap
from procmap import cli, jsonio
from procmap.bilinear_tomo import NotStrictlyMixed, ZeroGamma
from procmap.cli import main
from procmap.errors import (
    EXIT_BAD_CONFIG,
    EXIT_MISSING_LABELS,
    EXIT_NOT_A_FRAME,
    EXIT_OK,
    EXIT_ZERO_PROBABILITY,
)
from procmap.linear_tomo import NotAFrame
from procmap.prep import InvalidMeasurement, ZeroProbabilityOutcome
from procmap.qstate import bloch_vector
from procmap.records import LINEAR4_LABELS, TWELVE_STATE_LABELS, Dataset, MissingRecord, state_of_label
from procmap.scenarios import ScenarioError, demo_scenario_config, parse_scenario, simulate_scenario


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
    "bloch-a-two-entries": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5], "c23": 0.3}},
    "bloch-a-four-entries": {**MEASUREMENT, "gamma0": {"bloch_a": [0.0, 0.5, 0.0, 0.2], "c23": 0.3}},
    "bloch-a-string-and-bool": {**MEASUREMENT, "gamma0": {"bloch_a": ["0.1", False, 0], "c23": 0.3}},
    "mixed-bloch-string-and-bool": {**MEASUREMENT, "mixed_bloch": ["0.1", False, 0]},
    "mixed-bloch-1e300": {**MEASUREMENT, "mixed_bloch": [1e300, 0, 0]},
    "t-integer-beyond-float": {**MEASUREMENT, "t": 10**400},
    "t-5000-digits": '{"t": ' + "1" * 5000 + "}",
    "weight-nan": generalized(float("nan")),
    "weight-string": generalized("0.5", "0.5"),
    "hamiltonian-string-entry": {
        **PINNED,
        "hamiltonian": {**PINNED["hamiltonian"], "data": [["0.5", 0.0]] + PINNED["hamiltonian"]["data"][1:]},
    },
    "kraus-1x1": {
        **STOCHASTIC,
        "preparation": {
            **generalized(1.0)["preparation"],
            "measurement": {"outcomes": [{"weights": [1.0], "kraus": [jsonio.matrix_to_json(np.eye(1) / np.sqrt(12.0))]}] * 12},
        },
    },
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
    "bloch-a-two-entries": "gamma0.bloch_a must be a list of three",
    "bloch-a-four-entries": "gamma0.bloch_a must be a list of three",
    "bloch-a-string-and-bool": "gamma0.bloch_a[0] must be a JSON number",
    "mixed-bloch-string-and-bool": "mixed_bloch[0] must be a JSON number",
    "mixed-bloch-1e300": "mixed_bloch must have norm strictly below 1",
    "t-integer-beyond-float": "t must be finite",
    "t-5000-digits": ("bad.json", "more than 4300 digits"),
    "weight-nan": "weight must be finite",
    "weight-string": "weight must be a JSON number",
    "hamiltonian-string-entry": "entries must be JSON numbers",
    "kraus-1x1": "Kraus operators must be 2x2",
}


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


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_utf8_input_is_bad_config(command, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    code, err = run([command, path], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "UTF-8" in err


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
    # rounding of the prepared joint state, once divided by that gamma, grows like 1 / eta.
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
        (input_of_record_1, ["verify", "linear", "bilinear"], "'1+' input is not the state its label prepares"),
        (equal_linear_inputs, ["linear"], "'1+' input is not the state its label prepares"),
        (lambda obj: set_data(obj, "mixed", "input", {0: [1.5, 0.0], 3: [-0.5, 0.0]}), ["verify", "linear", "bilinear"],
         "'mixed' input is not a density matrix"),
    ],
    ids=["all-1x1", "one-3x3", "metadata-list", "gamma-7", "gamma-negative", "gamma-true", "gamma-string",
         "rows-string-cols-float", "rows-true", "entry-string-and-bool", "input-7", "output-7", "output-not-hermitian",
         "input-of-record-1", "equal-linear-inputs", "mixed-input-not-positive"],
)
def test_malformed_dataset_is_bad_config(edit, commands, word, tmp_path, capsys):
    path = write_dataset(tmp_path, edit(simulate(tmp_path, capsys)))
    for command in commands:
        argv = ["verify", path] if command == "verify" else ["tomo", path, "--mode", command]
        code, err = run(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert word in err, err


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
    ],
    ids=["simulate-missing-dir", "linear-missing-dir", "bilinear-missing-dir", "verify-missing-dir",
         "verify-directory", "demo-onto-a-file"],
)
def test_unwritable_out_is_bad_config(command, tmp_path, capsys):
    simulate(tmp_path, capsys)
    paths = {
        "scenario": tmp_path / "scenario.json",
        "dataset": tmp_path / "dataset.json",
        "missing": tmp_path / "missing" / "x.json",
        "directory": tmp_path,
    }
    code, err = run([arg.format(**paths) for arg in command], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "cannot write" in err, err


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
        for seed in range(10):
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
    scenario.write_text(json.dumps(config))  # one line, not procmap's indented layout
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


def test_finite_shot_dataset_is_seeded(tmp_path, capsys):
    first = simulate_shots(tmp_path, capsys, 1000, 7, "a.json")
    assert simulate_shots(tmp_path, capsys, 1000, 7, "b.json") == first
    assert simulate_shots(tmp_path, capsys, 1000, 8, "c.json") != first
    metadata = json.loads(first)["metadata"]
    assert (metadata["shots"], metadata["seed"]) == ("1000", "7")


def test_finite_shot_outputs_are_shot_counts(tmp_path, capsys):
    obj = json.loads(simulate_shots(tmp_path, capsys, 1000, 7, "dataset.json"))
    gammas = {}
    for rec in obj["records"]:
        ups = 500.0 * bloch_vector(jsonio.matrix_from_json(rec["output"])) + 500.0
        assert np.max(np.abs(ups - np.round(ups))) < 1e-9, rec["label"]
        gammas[rec["label"]] = rec["gamma"]
    for direction in "123456":
        assert gammas[f"{direction}+"] + gammas[f"{direction}-"] == pytest.approx(1.0, abs=1e-12)


def test_generalized_preparation_gammas_are_shot_counts(tmp_path, capsys):
    scenario = tmp_path / "generalized.json"
    scenario.write_text(json.dumps(generalized(1.0)))
    out = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--shots", 100, "--seed", 3, "--out", out], capsys) == (EXIT_OK, "")
    gammas = [rec["gamma"] for rec in json.loads(out.read_text())["records"]]
    assert len(gammas) == 12 and len(set(gammas)) > 1  # a draw, not the exact 1/12 each
    assert all(abs(100.0 * g - round(100.0 * g)) < 1e-9 for g in gammas), gammas
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
