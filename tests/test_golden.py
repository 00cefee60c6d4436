"""Golden demo bundles: `procmap demo` must keep reproducing the committed artifacts.

The scenario and dataset files are pinned byte for byte.  The measurement
demo's dataset also carries `oracle`; without that key it must re-emit to a
second pinned digest, so a change to its records or metadata shows apart from one
to the oracle.  The analysis
artifacts are compared against the copies under tests/golden/<demo>/ with a
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
        "dataset.json": "4fe333591407c60a8f1cb6efd82b37e83bec338ac9a4c07e832a9b1e02b65591",
    },
    "measurement-correlated": {
        "scenario.json": "3631560f0de98946dcf5c959d305cb4b23ef82379a0283af9d83ebf51cbf4263",
        "dataset.json": "198818fdaabd8b116a6c373cdda88b5d3730b3de740d5ac95d94511bc85b0f2b",
    },
    "imperfect-pin": {
        "scenario.json": "1265e79c4f6b6c9a5d7f38c536c6719fc72abadf29264bcb31c679519c6ed044",
        "dataset.json": "b75cf228373e200388338310c2841f94404bcb98f0081bdd12ac102407c2df2d",
    },
}
# sha256 of dataset.json re-emitted with its `oracle` key dropped: its records and metadata alone.
WITHOUT_ORACLE_SHA256 = {
    "measurement-correlated": "34a5f1fbe76ade36ecf3d0aaaea3461e29d370b1f8a7ed10f3f127713d5d2d99",
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
