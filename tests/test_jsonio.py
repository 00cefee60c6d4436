"""The JSON layer against its per-element oracles.

Emit round-trips every value bit for bit in the oracle's one-line layout, and
holds the bits that the indented layout it replaced held; decode matches its
loop, one matrix at a time, and a dataset's decode names the matrix at fault.
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from helpers import (
    per_element_dumps,
    rand_density,
    reference_elements_to_json,
    reference_matrix_from_json,
    reference_matrix_to_json,
    reference_to_json,
)
from procmap import jsonio
from procmap.bilinear_tomo import elements_to_json
from procmap.cli import main
from procmap.records import Dataset, state_of_label
from procmap.scenarios import DEMO_NAMES, demo_scenario_config, parse_scenario, simulate_scenario


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


def test_layout_is_one_line_with_ascii_escapes():
    obj = {"a": [], "b": {}, "c": [0.3, -0.0, 1e16, 5e-324, 2, True, None], "d": {"\u03b3": "\u2014\n"}}
    assert jsonio.dumps(obj) == (
        '{"a": [], "b": {}, "c": [0.3, -0.0, 1e+16, 5e-324, 2, true, null], "d": {"\\u03b3": "\\u2014\\n"}}\n'
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


def indented_dumps(obj) -> str:
    """The artifact layout `jsonio.dumps` wrote before it went to one line: two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@pytest.fixture(scope="module")
def both_layouts(tmp_path_factory):
    """Every artifact of the three demos and of a dimB = 64 simulate/tomo/verify chain, by path: text per layout."""
    root = tmp_path_factory.mktemp("layouts")
    scenario = root / "wide.json"
    scenario.write_text(json.dumps(wide_scenario()))
    texts = {}
    for layout, dumps in (("one-line", jsonio.dumps), ("indented", indented_dumps)):
        out = root / layout
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jsonio, "dumps", dumps)
            for demo in DEMO_NAMES:
                assert main(["demo", demo, "--out", str(out / demo)]) == 0
            (out / "wide").mkdir()
            dataset = str(out / "wide" / "dataset.json")
            assert main(["simulate", str(scenario), "--out", dataset]) == 0
            for mode in ("linear", "bilinear"):
                assert main(["tomo", dataset, "--mode", mode, "--out", str(out / "wide" / f"{mode}.json")]) == 0
            assert main(["verify", dataset, "--out", str(out / "wide" / "report.json")]) == 0
        texts[layout] = {path.relative_to(out).as_posix(): path.read_text() for path in sorted(out.rglob("*.json"))}
    assert len(texts["one-line"]) == 22 and texts["one-line"].keys() == texts["indented"].keys()
    return texts


def test_one_line_artifacts_hold_the_bits_of_the_indented_ones(both_layouts):
    new, old = both_layouts["one-line"], both_layouts["indented"]
    for name, text in new.items():
        assert text.endswith("\n") and text.count("\n") == 1, name
        got, want = json.loads(text), json.loads(old[name])
        if name.endswith("dataset.json"):  # the digest of the scenario file, whose layout changes with the demo's
            scenario = name.replace("dataset.json", "scenario.json")
            digests = [obj["metadata"].pop("scenario_sha256") for obj in (got, want)]
            if scenario in new:
                assert digests == [hashlib.sha256(texts[scenario].encode()).hexdigest() for texts in (new, old)]
            else:  # the wide chain's scenario is one input file
                assert digests[0] == digests[1]
        assert_same_bits(got, want, name)


@pytest.mark.parametrize("demo", [*DEMO_NAMES, "wide"])
def test_indented_dataset_loads_to_the_same_dataset(demo, both_layouts, tmp_path):
    text = both_layouts["one-line"][f"{demo}/dataset.json"]
    indented = indented_dumps(json.loads(text))
    got, want = Dataset.from_json(json.loads(indented)), Dataset.from_json(json.loads(text))
    assert got.labels == want.labels and got.metadata == want.metadata
    for name in ("inputs", "outputs", "gammas"):  # every double bit for bit, the sign of zero included
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.oracle is None and want.oracle is None) or got.oracle.tobytes() == want.oracle.tobytes()
    assert jsonio.dumps(got.to_json()) == text
    # The commands read either layout and write the same bytes.
    reports = []
    for name, content in (("one-line.json", text), ("indented.json", indented)):
        (tmp_path / name).write_text(content)
        assert main(["verify", str(tmp_path / name), "--out", str(tmp_path / f"report-{name}")]) == 0
        reports.append((tmp_path / f"report-{name}").read_bytes())
    assert reports[0] == reports[1]


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


def random_stack(rng, n: int) -> np.ndarray:
    """n random complex 2 x 2 matrices, with signed zeros in the first and last."""
    stack = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    stack[0, 0] = [complex(-0.0, -0.0), complex(0.0, -0.0)]
    stack[-1, 1] = [complex(-0.0, 0.0), complex(-0.0, 5e-324)]
    return stack


def random_encoded_dataset(rng, oracle: bool) -> Dataset:
    """Random records, one of them labeled "mixed", with -0.0 entries, a -0.0 and a 0 gamma, and maybe an oracle."""
    k = int(rng.integers(4, 14))
    gammas = rng.uniform(0.0, 1.0, k)
    gammas[:2] = [-0.0, 0.0]
    labels = tuple(f"r{i}" for i in range(k - 1)) + ("mixed",)
    metadata = {"shots": str(int(rng.integers(1, 10**6))), "seed": "", "\u03b3": "\u2014"}
    return Dataset(labels, random_stack(rng, k), random_stack(rng, k), gammas, metadata,
                   random_stack(rng, 10) if oracle else None)


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no-oracle"])
@pytest.mark.parametrize("seed", range(4))
def test_dataset_encode_is_byte_identical_to_record_loop(seed, oracle):
    dataset = random_encoded_dataset(np.random.default_rng([seed, oracle]), oracle)
    assert jsonio.dumps(dataset.to_json()) == jsonio.dumps(reference_to_json(dataset))


@pytest.mark.parametrize("demo", DEMO_NAMES)
@pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
def test_simulated_dataset_encode_is_byte_identical_to_record_loop(demo, shots):
    config = {**demo_scenario_config(demo), **({} if shots is None else {"shots": shots, "seed": 5})}
    dataset = simulate_scenario(parse_scenario(config))
    assert jsonio.dumps(dataset.to_json()) == jsonio.dumps(reference_to_json(dataset))


@pytest.mark.parametrize("n", [9, 10])
def test_element_table_encode_is_byte_identical_to_matrix_loop(n):
    elements = random_stack(np.random.default_rng(n), n)
    assert jsonio.dumps(elements_to_json(elements)) == jsonio.dumps(reference_elements_to_json(elements))


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


def test_stacked_decode_is_bit_identical_to_one_at_a_time():
    rng = np.random.default_rng(13)
    objs = [jsonio.matrix_to_json(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) for _ in range(5)]
    objs[2]["data"][0] = [-0.0, 5e-324]
    objs[4]["data"][-1] = [3, -(2**60)]
    for obj in objs:
        got = jsonio.matrix_from_json(obj, (3, 2))
        assert got.shape == (3, 2) and got.tobytes() == reference_matrix_from_json(obj).tobytes()
    with pytest.raises(ValueError, match=r"^matrix shapes must all be 3x2 with 6 \[re, im\] pairs, got 2x2 with 4$"):
        jsonio.matrix_from_json(jsonio.matrix_to_json(np.eye(2)), (3, 2))
    # A dataset's (2k, 2, 2) stack holds its inputs, then its outputs, each decoded alone, bit for bit.
    config = {**demo_scenario_config("measurement-correlated"), "shots": 1000, "seed": 5}
    obj = json.loads(jsonio.dumps(simulate_scenario(parse_scenario(config)).to_json()))
    obj["records"][3]["output"]["data"] = [[1, 0], [-0.0, 5e-324], [-0.0, -5e-324], [0, -0.0]]  # a state
    dataset = Dataset.from_json(obj)
    want = [reference_matrix_from_json(e[side]) for side in ("input", "output") for e in obj["records"]]
    assert np.concatenate((dataset.inputs, dataset.outputs)).tobytes() == np.array(want).tobytes()
    assert dataset.oracle.tobytes() == reference_matrix_from_json(obj["oracle"]).reshape(10, 2, 2).tobytes()
    empty = Dataset.from_json({"records": []})
    assert empty.inputs.shape == empty.outputs.shape == (0, 2, 2)


def exact_dataset_json() -> dict:
    """The stochastic demo's exact dataset as its file holds it; record 2 is labeled 2+."""
    dataset = simulate_scenario(parse_scenario(demo_scenario_config("stochastic-heisenberg")))
    return json.loads(jsonio.dumps(dataset.to_json()))


@pytest.mark.parametrize(
    "edit, words",
    [
        (lambda obj: obj["data"].__setitem__(1, [0.5, math.inf]), "non-finite"),
        (lambda obj: obj["data"].__setitem__(3, [0.5]), "[re, im] pairs"),
        (lambda obj: obj["data"].__setitem__(0, [None, 0.0]), "JSON numbers, got None"),
        (lambda obj: obj["data"].pop(), "2x2 with 4 [re, im] pairs, got 2x2 with 3"),
        (lambda obj: obj.update(rows=2.0), "JSON integers"),
        (lambda obj: obj.pop("cols"), "malformed matrix JSON"),
    ],
    ids=["inf", "short-pair", "null", "short-data", "float-rows", "no-cols"],
)
def test_stacked_decode_names_the_matrix_at_fault(edit, words):
    obj = exact_dataset_json()
    for record, side in ((2, "output"), (5, "input"), (7, "output")):
        edit(obj["records"][record][side])
    with pytest.raises(ValueError) as alone:
        jsonio.matrix_from_json(obj["records"][5]["input"], (2, 2))
    assert words in str(alone.value) and "record" not in str(alone.value)
    # Every input is decoded before any output, so the first matrix at fault is record 5's input.
    with pytest.raises(ValueError) as caught:
        Dataset.from_json(obj)
    assert str(caught.value) == f"record '3-' input: {alone.value}"
    obj["records"][5]["input"] = jsonio.matrix_to_json(state_of_label("3-"))
    with pytest.raises(ValueError) as caught:
        Dataset.from_json(obj)
    assert str(caught.value) == f"record '2+' output: {alone.value}"
    oracle = jsonio.matrix_to_json(np.zeros((10, 4)))
    edit(oracle)
    with pytest.raises(ValueError) as alone:
        jsonio.matrix_from_json(oracle, (10, 4))
    with pytest.raises(ValueError) as caught:
        Dataset.from_json({**exact_dataset_json(), "oracle": oracle})
    assert str(caught.value) == f"oracle: {alone.value}"


def test_a_missing_input_or_output_is_reported_before_any_matrix_fault():
    obj = exact_dataset_json()
    obj["records"][0]["input"]["data"][0] = ["0.5", 0.0]
    del obj["records"][11]["output"]
    with pytest.raises(KeyError, match="output"):
        Dataset.from_json(obj)


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
