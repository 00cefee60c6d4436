"""The CLI surface through `main(argv)`: exit codes, one-line diagnostics, oracle block."""

import json
import os
import subprocess
import sys
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
from procmap.records import MissingRecord
from procmap.scenarios import LINEAR4_LABELS, ScenarioError, demo_scenario_config, parse_scenario
from procmap.verify import TWELVE_STATE_LABELS


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
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_malformed_scenario_is_bad_config(case, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(BAD_SCENARIOS[case]))  # json writes NaN and Infinity literally
    code, err = run(["simulate", scenario], capsys)
    assert code == EXIT_BAD_CONFIG
    words = BAD_SCENARIO_WORDS[case]
    assert all(word in err for word in (words if isinstance(words, tuple) else (words,))), err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_utf8_input_is_bad_config(command, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    code, err = run([command, path], capsys)
    assert code == EXIT_BAD_CONFIG
    assert "UTF-8" in err


def set_gamma(obj, label, gamma):
    """Give the labeled record the outcome probability `gamma`."""
    next(rec for rec in obj["records"] if rec["label"] == label)["gamma"] = gamma
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
    ],
    ids=["all-1x1", "one-3x3", "metadata-list", "gamma-7", "gamma-negative", "gamma-true", "gamma-string"],
)
def test_malformed_dataset_is_bad_config(edit, commands, word, tmp_path, capsys):
    path = write_dataset(tmp_path, edit(simulate(tmp_path, capsys)))
    for command in commands:
        argv = ["verify", path] if command == "verify" else ["tomo", path, "--mode", command]
        code, err = run(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert word in err, err


def test_missing_label_exits_4(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    obj["records"] = [r for r in obj["records"] if r["label"] != "6-"]
    assert run(["verify", write_dataset(tmp_path, obj)], capsys)[0] == EXIT_MISSING_LABELS


def test_equal_linear_inputs_are_not_a_frame(tmp_path, capsys):
    obj = simulate(tmp_path, capsys)
    first = next(r for r in obj["records"] if r["label"] == LINEAR4_LABELS[0])
    for rec in obj["records"]:
        if rec["label"] in LINEAR4_LABELS:
            rec["input"] = first["input"]
    path = write_dataset(tmp_path, obj)
    assert run(["tomo", path, "--mode", "linear"], capsys)[0] == EXIT_NOT_A_FRAME


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


@pytest.mark.parametrize("text", ["{", "[]", ""], ids=["brace", "array", "empty"])
def test_corrupt_embedded_scenario_is_ignored(text, tmp_path, capsys):
    # scenario_json is provenance only: tomo's output does not depend on it.
    obj = simulate(tmp_path, capsys)
    code, _, want = tomo_bilinear_output(tmp_path, capsys, obj)
    assert code == EXIT_OK and "oracle_comparison" in json.loads(want)
    obj["metadata"]["scenario_json"] = text
    assert tomo_bilinear_output(tmp_path, capsys, obj) == (EXIT_OK, "", want)


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
def test_dataset_embeds_the_scenario_file_verbatim(shot_args, tmp_path, capsys):
    config = {**PINNED, "t": 0.1, "note": "γ₀ = 0.7 |0⟩⟨0| ⊗ 1/2 + 0.3 χ"}
    # The stdlib's shortest-repr floats, non-ASCII text and CRLF line ends are
    # none of them what procmap would write.
    text = json.dumps(config, indent=1, ensure_ascii=False).replace("\n", "\r\n")
    assert text not in (jsonio.dumps(json.loads(text)), jsonio.dumps(json.loads(text), indent=0))
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(text.encode("utf-8"))
    dataset = tmp_path / "dataset.json"
    assert run(["simulate", scenario, "--out", dataset, *shot_args], capsys) == (EXIT_OK, "")
    metadata = json.loads(dataset.read_text())["metadata"]
    assert metadata["scenario_json"].encode("utf-8") == scenario.read_bytes()
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
    scenario.write_text(json.dumps(config))  # the stdlib's shortest-repr floats, not procmap's
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
