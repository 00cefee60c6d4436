"""Golden demo bundles: `procmap demo` must keep reproducing the committed artifacts.

The scenario and dataset files are pinned byte for byte, and each dataset's
`metadata.scenario_sha256` must be the pinned digest of its bundle's
scenario.json, so `procmap simulate <bundle>/scenario.json` records the same
provenance as the demo.  The measurement demo's dataset also carries `oracle`;
without that key it must re-emit to a second pinned digest, so a change to its
records or metadata shows apart from one to the oracle.  The analysis artifacts
are compared against the copies under tests/golden/<demo>/ with a
1e-12 tolerance on every float, the same key order in every object and exact
equality on every other value; report.json is compared whole, its schema tag
and each record's fit residuals included.

All seven digests were last re-pinned when `jsonio.dumps` moved from the
stdlib's indenting (pure-Python) encoder to its one-line C encoder, a layout
change only: every value of every artifact parses back to the same bits, the
sign of zero included (`tests/test_jsonio.py` checks this against the indented
layout).  The dataset digests moved with their layout and with
`metadata.scenario_sha256`, which digests the scenario file's new bytes.
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
        "scenario.json": "002b407d29316593b23e25a95380212ef32ba2ef0d46a7a85f44438d0e402bf5",
        "dataset.json": "f67b1dbcaa1317b2b927b908cd0d2d0341b115714a84b0af0f498af45b401979",
    },
    "measurement-correlated": {
        "scenario.json": "3e988f4974b7567d08ea94615b6f877e922e8d55068b3f9e807762f31605c873",
        "dataset.json": "80fb63e676d4b82a5f5cb54a0d371ff66977c03ca5a4096f4ca198eb4cfeeb93",
    },
    "imperfect-pin": {
        "scenario.json": "bbb799aba0cf24dab45f6039937de8ef537a05565248051c29703294e883c0f2",
        "dataset.json": "34ba4008dc15d25a1c9544bfbe789c29966a3aba36f1b5c0cf42877b33914778",
    },
}
# sha256 of dataset.json re-emitted with its `oracle` key dropped: its records and metadata alone.
WITHOUT_ORACLE_SHA256 = {
    "measurement-correlated": "47293a2138693e0354645f98b2017d9acfc5c9f942177e09e1b4927591352dec",
}
VERDICTS = {
    "stochastic-heisenberg": "Linear",
    "measurement-correlated": "Bilinear",
    "imperfect-pin": "Neither",
}


def assert_close(got, want, where="$"):
    """Structural equality, key order included, with a FLOAT_TOL tolerance on floats."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
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

    for name in ("linear_map.json", "m_elements.json", "report.json", "analysis.json"):
        got = json.loads((out / name).read_text())
        want = json.loads((GOLDEN / demo / name).read_text())
        assert_close(got, want, name)
    assert json.loads((out / "report.json").read_text())["verdict"] == VERDICTS[demo]
