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
        "scenario.json": "3ef2811ad75361342966fec9fc572f70aeab9379569a7ff7bbeb576ace535616",
        "dataset.json": "45d46ce693113b7ad8deee424b75974451727e4825e78a6bbe46cef0f2ef550f",
    },
    "measurement-correlated": {
        "scenario.json": "3631560f0de98946dcf5c959d305cb4b23ef82379a0283af9d83ebf51cbf4263",
        "dataset.json": "25b3b7a0bd5ebf76e5e4450d60c2dfa819a4949f7e1b34a763d23398dfaca006",
    },
    "imperfect-pin": {
        "scenario.json": "1265e79c4f6b6c9a5d7f38c536c6719fc72abadf29264bcb31c679519c6ed044",
        "dataset.json": "084b231316c14377f9c663871337fefe1e4b077e40b46b99e541287a4f29d519",
    },
}
# sha256 of dataset.json re-emitted with its `oracle` key dropped: its records and metadata alone.
WITHOUT_ORACLE_SHA256 = {
    "measurement-correlated": "758fb45b249fc3d2f504e066c9898d832bbb57d00a41a18b54a7741b0d32415f",
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
