"""A fixed, seeded fuzz table run in-process through `main(argv)`.

Every JSON path of each demo's `scenario.json` and `dataset.json` is mutated once:
set to one of sixteen values or deleted, the choice drawn from a generator with a
fixed seed.  A mutated scenario runs `simulate`; a mutated dataset runs `tomo
--mode linear`, `tomo --mode bilinear` and `verify`.  Every run must exit with a
documented code (0, 2, 3, 4 or 5), a nonzero exit must write exactly one line to
stderr (read at the file descriptor, so that a native library's message counts
too), and no run may raise a Python warning.
"""

import json
import os
import warnings

import numpy as np
import pytest

from procmap.cli import main
from procmap.scenarios import DEMO_NAMES

SEED = 0
DELETE = object()
VALUES = (None, True, "0.5", float("nan"), -1, 0, 3, 1.5, -0.5, 7, [], {}, [[0]], 2**70, 1e300, 1e-300, DELETE)
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}
COMMANDS = {
    "scenario.json": (["simulate"],),
    "dataset.json": (["tomo", "--mode", "linear"], ["tomo", "--mode", "bilinear"], ["verify"]),
}


def json_paths(obj, prefix=()):
    """Every path below the root of a JSON value, each parent before its children."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated_text(obj, path, value) -> str:
    """The JSON text of `obj` with `path` set to `value` or deleted; `obj` itself is left as it was."""
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    last = path[-1]
    saved = list(owner.items()) if isinstance(owner, dict) else list(owner)
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    try:
        return json.dumps(obj)  # NaN is written literally, as a hand-edited file might hold it
    finally:
        owner.clear()
        if isinstance(owner, dict):
            owner.update(saved)
        else:
            owner.extend(saved)


def run_once(argv, capfd) -> str | None:
    """None when one CLI run keeps the contract, else what went wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    err = capfd.readouterr().err
    if caught:
        return f"warning {caught[0].category.__name__}: {caught[0].message}"
    if code not in DOCUMENTED_EXIT_CODES:
        return f"exit {code!r}"
    if code != 0 and err.count("\n") != 1:
        return f"exit {code} with stderr {err!r}"
    return None


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-demos")
    for name in DEMO_NAMES:
        assert main(["demo", name, "--out", str(out / name)]) == 0
    return out


@pytest.mark.parametrize("file_name", sorted(COMMANDS))
@pytest.mark.parametrize("demo", DEMO_NAMES)
def test_every_single_mutation_keeps_the_cli_contract(demo, file_name, demo_files, tmp_path, capfd):
    obj = json.loads((demo_files / demo / file_name).read_text())
    capfd.readouterr()
    rng = np.random.default_rng([SEED, DEMO_NAMES.index(demo), sorted(COMMANDS).index(file_name)])
    target = tmp_path / file_name
    bad = []
    for path in list(json_paths(obj)):
        value = VALUES[rng.integers(len(VALUES))]
        target.write_text(mutated_text(obj, path, value))
        for command in COMMANDS[file_name]:
            problem = run_once([*command, str(target), "--out", os.devnull], capfd)
            if problem:
                bad.append(f"{'/'.join(map(str, path))} = {'<deleted>' if value is DELETE else repr(value)}: "
                           f"{' '.join(command)}: {problem}")
    assert not bad, f"{len(bad)} bad runs, first: " + "; ".join(bad[:5])
