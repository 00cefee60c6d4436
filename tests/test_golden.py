"""Golden demo bundles: `procmap demo` must keep reproducing the committed artifacts.

The scenario and dataset files are pinned byte for byte, and each dataset's
`metadata.scenario_sha256` must be the pinned digest of its bundle's
scenario.json, so `procmap simulate <bundle>/scenario.json` records the same
provenance as the demo.  The measurement demo's dataset also carries `oracle`;
without that key it must re-emit to a second pinned digest, so a change to its
records or metadata shows apart from one to the oracle.  The analysis artifacts
are compared against the copies under tests/golden/<demo>/ with a
1e-12 tolerance on every float and exact equality on every other value; in
report.json the per-record fit residuals and the schema tag are not compared.

The stochastic and imperfect-pin dataset digests were last re-pinned when each
label's ket came to be read off the closed-form ket table in `records` instead
of an eigensolver: each output moved by at most 1.1e-16 and no gamma left 1.0.
The measurement demo's dataset and all three scenarios kept their bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from procmap import jsonio
from procmap.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

PINNED_SHA256 = {
    "stochastic-heisenberg": {
        "scenario.json": "f45c1588ff14b02c0cf72a39e3e3332c2e2a1d2ceac62809fda095d0133587d2",
        "dataset.json": "21f34c0d93dc4b8567a6df102c12677de94f156391a3e12cafa01af0c03f46b0",
    },
    "measurement-correlated": {
        "scenario.json": "a74818e94a19980504189c09fd9e917053a1fbc74aa067ba4e93ac93572422f7",
        "dataset.json": "07700f0b8864f0beabe5cc24266501a699075ec76f0c55c0ff0d5c0326f461a9",
    },
    "imperfect-pin": {
        "scenario.json": "aea588f4c4dfc53382cd40023ec642d8b694661254d6e84028785f623e880a4a",
        "dataset.json": "1de56d808094422cfe6eec07c18ca3d88ddb22cc5bfce599edaf707f537b6d8d",
    },
}
# sha256 of dataset.json re-emitted with its `oracle` key dropped: its records and metadata alone.
WITHOUT_ORACLE_SHA256 = {
    "measurement-correlated": "f8f7730385799627be013f5b19178eb7d79020a5d1422d98234f1fbcdab447f2",
}
VERDICTS = {
    "stochastic-heisenberg": "Linear",
    "measurement-correlated": "Bilinear",
    "imperfect-pin": "Neither",
}
REPORT_UNCOMPARED = ("linear_residuals", "bilinear_residuals", "schema")


def assert_close(got, want, where="$"):
    """Structural equality with a FLOAT_TOL tolerance on floats."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), f"{where}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("demo", sorted(PINNED_SHA256))
def test_demo_bundle_matches_golden(demo, tmp_path, capsys):
    out = tmp_path / demo
    assert main(["demo", demo, "--out", str(out)]) == 0
    capsys.readouterr()

    for name, digest in PINNED_SHA256[demo].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    dataset = json.loads((out / "dataset.json").read_text())
    assert dataset["metadata"]["scenario_sha256"] == PINNED_SHA256[demo]["scenario.json"]
    oracle = dataset.pop("oracle", None)
    assert (oracle is not None) == (demo in WITHOUT_ORACLE_SHA256)
    if oracle is not None:
        assert (oracle["rows"], oracle["cols"]) == (10, 4)
        digest = hashlib.sha256(jsonio.dumps(dataset).encode()).hexdigest()
        assert digest == WITHOUT_ORACLE_SHA256[demo]

    for name in ("linear_map.json", "m_elements.json", "analysis.json"):
        got = json.loads((out / name).read_text())
        want = json.loads((GOLDEN / demo / name).read_text())
        assert_close(got, want, name)

    report = json.loads((out / "report.json").read_text())
    want = json.loads((GOLDEN / demo / "report.json").read_text())
    for key in REPORT_UNCOMPARED:
        report.pop(key, None)
        want.pop(key, None)
    assert_close(report, want, "report.json")
    assert report["verdict"] == VERDICTS[demo]
