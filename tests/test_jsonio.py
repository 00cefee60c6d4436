"""The JSON layer against its per-element oracles: emit round-trips every value bit for bit in the oracle's layout, and the array decode matches its loop."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from helpers import per_element_dumps, rand_density, reference_matrix_from_json, reference_matrix_to_json
from procmap import jsonio
from procmap.cli import main
from procmap.scenarios import DEMO_NAMES, parse_scenario, simulate_scenario


def wide_scenario(dim_env: int = 64) -> dict:
    """A dimB = 64 scenario as a parsed JSON file holds it: two 128x128 matrices of float pairs."""
    rng = np.random.default_rng(3)
    d = 2 * dim_env
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    scenario = {
        "dimA": 2,
        "dimB": dim_env,
        "hamiltonian": jsonio.matrix_to_json((a + a.conj().T) / (2.0 * math.sqrt(d))),
        "t": 0.7,
        "gamma0": jsonio.matrix_to_json(rand_density(rng, d)),
        "preparation": {"method": "measurement"},
        "protocol": "verify12",
        "mixed_bloch": [0.25, -0.25, 0.0],
    }
    return json.loads(json.dumps(scenario))


def assert_same_bits(got, want, where="$"):
    """`got`, as parsed back, holds the values of `want`: floats bit for bit (sign of zero too), tuples as lists."""
    if isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert struct.pack("<d", got) == struct.pack("<d", want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, (list, tuple)):
        assert type(got) is list and len(got) == len(want), f"{where}: {got!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_same_bits(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_round_trip(obj):
    assert_same_bits(json.loads(jsonio.dumps(obj)), obj)


def assert_matches_oracle(obj, indent):
    """`dumps` writes the oracle's text and parses back to the bits of `obj`; the oracle's text at `indent` re-emits to it."""
    text = jsonio.dumps(obj)
    assert text == per_element_dumps(obj)
    assert_same_bits(json.loads(text), obj)
    assert jsonio.dumps(json.loads(per_element_dumps(obj, indent=indent))) == text


def test_layout_is_two_space_indent_with_ascii_escapes():
    obj = {"a": [], "b": {}, "c": [0.3, -0.0, 1e16, 5e-324, 2, True, None], "d": {"\u03b3": "\u2014\n"}}
    assert jsonio.dumps(obj) == (
        '{\n  "a": [],\n  "b": {},\n  "c": [\n    0.3,\n    -0.0,\n    1e+16,\n    5e-324,\n    2,\n'
        '    true,\n    null\n  ],\n  "d": {\n    "\\u03b3": "\\u2014\\n"\n  }\n}\n'
    )


@pytest.mark.parametrize("indent", [0, 2])
def test_wide_scenario_matches_oracle(indent):
    assert_matches_oracle(wide_scenario(), indent)


@pytest.fixture(scope="module")
def emitted_texts(tmp_path_factory):
    """Every artifact file of the three demos, and a dimB = 64 dataset with an escaped note, as text."""
    out = tmp_path_factory.mktemp("demos")
    texts = []
    for demo in DEMO_NAMES:
        assert main(["demo", demo, "--out", str(out / demo)]) == 0
        texts += [path.read_text() for path in sorted((out / demo).iterdir())]
    assert len(texts) == 18
    dataset = simulate_scenario(parse_scenario(wide_scenario(), name="wide")).to_json()
    dataset["metadata"]["note"] = "Zustände \u2014 \"quoted\" \\ \t \U0001d4ac"
    assert_round_trip(dataset)
    return texts + [jsonio.dumps(dataset)]


def test_wide_dataset_carries_the_scenario_digest_not_its_text(tmp_path):
    # The dimB = 64 scenario file is about 1.5 MB and its dataset about 14 KB, so
    # a copy of the scenario in the dataset could not stay under the bound.
    scenario, dataset = tmp_path / "wide.json", tmp_path / "dataset.json"
    scenario.write_text(json.dumps(wide_scenario()))
    assert main(["simulate", str(scenario), "--out", str(dataset)]) == 0
    assert scenario.stat().st_size > 1_000_000
    assert dataset.stat().st_size < 32 * 1024
    metadata = json.loads(dataset.read_text())["metadata"]
    assert metadata["scenario_sha256"] == hashlib.sha256(scenario.read_bytes()).hexdigest()


@pytest.mark.parametrize("indent", [0, 2, 4])
def test_demo_artifacts_and_wide_dataset_match_oracle(indent, emitted_texts):
    for text in emitted_texts:
        obj = json.loads(text)
        assert jsonio.dumps(obj) == text  # a fixed point
        assert_matches_oracle(obj, indent)


@pytest.mark.parametrize("indent", [0, 2, 4])
def test_random_exponents_match_oracle(indent):
    rng = np.random.default_rng(5)
    mantissa = rng.uniform(-10.0, 10.0, size=3000)
    exponent = rng.integers(-300, 301, size=3000)
    values = (mantissa * 10.0 ** exponent.astype(float)).tolist()
    for ncols in (1, 2, 3):
        assert_matches_oracle([values[i : i + ncols] for i in range(0, 3000 - 2, ncols)], indent)


EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e15, 1e16, -1e16, 9.999999999999998e16, 1e17, -1e17, 1e18, -1e18, 123456789012345.0,
    2.0**53, 2.0**53 + 2.0, 0.5, -2.5, 1e-5, 1e-4, 0.1,
]


@pytest.mark.parametrize("indent", [0, 2, 4])
@pytest.mark.parametrize("ncols", [1, 2, 3])
def test_edge_values_match_oracle(indent, ncols):
    values = EDGE_VALUES + [float(k) for k in range(-50, 50, 7)]
    rows = [values[i : i + ncols] for i in range(0, len(values) - ncols + 1, ncols)]
    for obj in (rows, tuple(tuple(r) for r in rows), {"data": rows, "t": 0.5}):
        assert_matches_oracle(obj, indent)


@pytest.mark.parametrize(
    "odd",
    [1, True, None, np.float64(0.25), "0.25", [0.25, 0.5]],
    ids=["int", "bool", "none", "np.float64", "str", "nested"],
)
def test_tables_with_other_leaves_round_trip(odd):
    assert_round_trip([[0.5, -1.0], [odd, 2.0], [3e-9, 4.0]])


def test_ragged_and_scalar_lists_round_trip():
    for obj in ([[0.5, 1.0], [2.0]], [[], []], [0.5, 1.0], [[0.5], (1.0,)], [[[0.5, 1.0]], [[2.0, 3.0]]]):
        assert_round_trip(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_in_table_raises(bad):
    for obj in (bad, [[0.5, 1.0], [2.0, bad]], [[0.5, [bad]]], {"data": [0.5], "t": bad}):
        with pytest.raises(ValueError):
            jsonio.dumps(obj)


@pytest.mark.parametrize("scalar", [np.int64(-3), np.bool_(True), np.float32(1.5)], ids=["int64", "bool_", "float32"])
def test_numpy_scalars_are_not_serialized(scalar):
    with pytest.raises(TypeError):
        jsonio.dumps([0.5, scalar])


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "real"])
def test_matrix_encode_is_bit_identical_to_loop(layout):
    rng = np.random.default_rng(21)
    m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    m[0, :3] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
    mat = {"contiguous": m, "transposed": m.T, "strided": m[::2, ::3], "real": m.real}[layout]
    got, want = jsonio.matrix_to_json(mat), reference_matrix_to_json(mat)
    assert_same_bits(got, want)
    assert np.array(got["data"]).tobytes() == np.array(want["data"]).tobytes()


def test_matrix_decode_is_bit_identical_to_loop():
    rng = np.random.default_rng(9)
    for rows, cols in ((1, 1), (2, 2), (3, 5), (128, 128)):
        obj = jsonio.matrix_to_json(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        obj["data"][0] = [-0.0, 5e-324]
        obj["data"][-1] = [3, -(2**60)]  # JSON integers are numbers too
        got = jsonio.matrix_from_json(obj)
        want = reference_matrix_from_json(obj)
        assert got.shape == want.shape == (rows, cols)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "data",
    [
        [[1.0, 0.0], [1.0]],
        [[1.0, 0.0], [1.0, 0.0, 0.0]],
        [[1.0, 0.0]],
        [[1.0, math.nan], [0.0, 0.0]],
        [1.0, 0.0],
        [[1.0, 0.0], ["0.5", 0.0]],
        [[1.0, 0.0], [True, 0.0]],
        [[1.0, 0.0], [10**400, 0.0]],
    ],
    ids=["ragged", "triple", "short", "nan", "flat", "string", "bool", "int-beyond-float"],
)
def test_malformed_matrix_data_raises(data):
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 1, "cols": 2, "data": data})
