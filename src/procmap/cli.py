"""Command-line surface: simulate, tomo, verify, and demo.

stdout carries JSON only: every artifact is one JSON line (`python -m json.tool FILE` indents
it).  Human diagnostics go to stderr (ANSI-colored on a terminal unless PROCMAP_NO_COLOR is
set), one line each, and a value read from input is shown cut to a fixed size (`errors.shown`).
Exit codes, each the `exit_code` of the `ProcmapError` subclasses named:
  0  success
  2  ScenarioError, InvalidMeasurement, NotStrictlyMixed: malformed config or dataset, including a matrix
     entry that is not a JSON number (a string or a bool), a scenario key the parser does not read (the
     scenario's `note` is a free-form comment), a record state that `Dataset.checked` does not allow (a
     read, or `simulate` before it writes; an exact output that is not a state, as a tiny gamma can give),
     an empty input path, or an input file that is unreadable, not UTF-8, not JSON, too deeply nested or
     with an integer over Python's 4,300-digit limit; ProcmapError itself: a --tol-linear or
     --tol-bilinear that is not a finite non-negative number, or an --out that cannot be written (a missing
     directory, an empty path, a full device, or for `demo` an existing file), or a stdout that cannot be
     written (a closed pipe, a full device, or no stdout at all)
  3  ZeroProbabilityOutcome, ZeroGamma: zero-probability preparation or record
  4  MissingRecord: missing record labels
  5  NotAFrame: never from a dataset file, where every protocol record's input is its label's state within
     `STATE_TOL`; only a Python caller of `reconstruct_linear_map` meets it

`tomo` and `verify` decode and check each distinct dataset content once per process (identical bytes
under any path share one read-only Dataset; errors are never cached), and what `simulate` wrote in this
process not at all: `simulate` keeps the Dataset it built, checked as a read checks it, or refuses it.

`tomo --mode bilinear` reports its fit's deviation from the dataset's `oracle`
table (`oracle_comparison`), which `simulate` writes for measurement preparation
only; a dataset without `oracle` gets no comparison.  `metadata.scenario_sha256`
is the sha256 of the scenario file's bytes, provenance only: no command reads it.

An input file is read with `open` (an empty path is no file, not the working directory).  An --out file
(and each bundle file of `demo`) is overwritten in place, not atomically: the same inode, permission bits
and links, then truncated to the new length.  A target that is not a regular file (/dev/null, a pipe
behind /dev/stdout) is written untruncated.

`run()` is the process entry point (`python -m procmap.cli` and the `procmap` script): it runs
`main()`, freezes the heap (`gc.freeze`) and exits with the code.  `main(argv)` returns the code
and never freezes, so an in-process caller keeps a heap the collector can still free.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import jsonio
# build_M_from_dynamics and element_table_from_map stay bound here, unused, so
# that perfbench/tracer.py can wrap every bi-linear layer under procmap.cli.
from .bilinear_tomo import element_table_from_map, elements_to_json, solve_M_elements
from .dynamics import build_M_from_dynamics
from .errors import EXIT_OK, ProcmapError
from .linear_tomo import apply_linear_map, map_diagnostics, map_to_json, reconstruct_linear_map
from .qstate import bloch_vector
from .records import LINEAR4_LABELS, Dataset
from .scenarios import DEMO_NAMES, ScenarioError, demo_scenario_config, parse_scenario, simulate_scenario
from .verify import DEFAULT_TOL_BILINEAR, DEFAULT_TOL_LINEAR, classify


def _diag(message: str) -> None:
    if sys.stderr.isatty() and not os.environ.get("PROCMAP_NO_COLOR"):
        sys.stderr.write(f"\x1b[31merror:\x1b[0m {message}\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def _write_file(path: str | Path, data: bytes) -> None:
    # Never O_TRUNC (Path.write_bytes): on ext4, closing a file truncated to zero forces its new
    # data out, measured at 0.1-0.25 ms per overwritten 1-20 kB artifact against 11-20 us in place.
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(len(data))
    except OSError as exc:
        raise ProcmapError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_stdout(text: str) -> None:
    """Write `text` to stdout and flush it; a stdout that cannot take it is a ProcmapError.

    After a failed write, fd 1 is pointed at /dev/null: the exit flush of what stays buffered
    would otherwise fail again and turn the exit code into 120.
    """
    if sys.stdout is None:  # the interpreter started with fd 1 closed
        raise ProcmapError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ProcmapError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _write_output(payload: dict, out: str | None) -> bytes:
    text = jsonio.dumps(payload)
    data = text.encode()
    if out is None:
        _write_stdout(text)
    else:  # an empty --out is an unwritable path, not stdout
        _write_file(out, data)
    return data


def _read(path: str) -> bytes:
    try:  # open, not pathlib: half the cost per read, and an empty path is no file, not "."
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_json(raw: bytes, path: str) -> dict:
    """The JSON object that `raw`, the UTF-8 text of file `path`, holds; else a ScenarioError naming `path`."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"cannot read JSON from {path}: {exc}") from exc
    except ValueError as exc:  # json.loads refuses an integer beyond Python's digit limit
        raise ScenarioError(f"{path} holds a JSON integer of more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path} holds JSON nested too deeply to decode") from exc
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} does not hold a JSON object")
    return obj


# The last 4 dataset contents this process read or wrote, least recently used first: file bytes -> Dataset.
_datasets: dict[bytes, Dataset] = {}


def _remember(raw: bytes, dataset: Dataset) -> Dataset:
    _datasets[raw] = dataset
    if len(_datasets) > 4:
        del _datasets[next(iter(_datasets))]
    return dataset


def _read_dataset(path: str) -> Dataset:
    """The read-only Dataset file `path` holds, decoded at most once per content (a failure is never cached)."""
    raw = _read(path)
    dataset = _datasets.pop(raw, None)
    if dataset is None:
        try:  # _parse_json's own ScenarioError is not caught here
            dataset = Dataset.from_json(_parse_json(raw, path))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed dataset {path}: {exc}") from exc
    return _remember(raw, dataset)


def _sha256(data: bytes) -> str:
    import hashlib  # here, not at the top: only simulate and demo pay for OpenSSL's _hashlib

    return hashlib.sha256(data).hexdigest()


def cmd_simulate(args) -> int:
    raw = _read(args.scenario)
    obj = _parse_json(raw, args.scenario)
    digest = _sha256(raw)
    del raw  # the scenario's bytes are not kept alive through the simulation
    for key in ("shots", "seed"):
        if getattr(args, key) is not None:
            obj[key] = getattr(args, key)
    scenario = parse_scenario(obj, name=Path(args.scenario).stem)
    del obj  # nor its decoded JSON: what simulate keeps, allocated amid it, would pin that memory once freed
    dataset = simulate_scenario(scenario, digest)
    _remember(_write_output(dataset.to_json(), args.out), dataset)  # a later read of these bytes gets this Dataset
    return EXIT_OK


def _tomo_linear(dataset: Dataset) -> dict:
    lam = reconstruct_linear_map(dataset.subset(LINEAR4_LABELS))
    return {"mode": "linear", "map": map_to_json(lam), "diagnostics": map_diagnostics(lam)}


def _tomo_bilinear(dataset: Dataset) -> dict:
    elements = solve_M_elements(dataset)
    payload = {"mode": "bilinear", "elements": elements_to_json(elements)}
    if dataset.oracle is not None:
        deviation = np.max(np.abs(elements - dataset.oracle[: len(elements)]))
        payload["oracle_comparison"] = {"max_element_deviation": float(deviation)}
    return payload


def cmd_tomo(args) -> int:
    dataset = _read_dataset(args.dataset)
    payload = _tomo_linear(dataset) if args.mode == "linear" else _tomo_bilinear(dataset)
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    for option, tol in (("--tol-linear", args.tol_linear), ("--tol-bilinear", args.tol_bilinear)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ProcmapError(f"{option} must be a finite non-negative number, got {tol}")
    dataset = _read_dataset(args.dataset)
    _write_output(classify(dataset, tol_linear=args.tol_linear, tol_bilinear=args.tol_bilinear), args.out)
    return EXIT_OK


def _demo_counterexample(dataset: Dataset, lam: np.ndarray) -> dict:
    """Linear prediction vs measured output for the held-out 2- input."""
    held_out = dataset.subset(("2-",))
    predicted_bloch = bloch_vector(apply_linear_map(lam, held_out.inputs[0]))
    actual_bloch = bloch_vector(held_out.outputs[0])
    return {
        "label": "2-",
        "linear_prediction_bloch": [float(v) for v in predicted_bloch],
        "actual_bloch": [float(v) for v in actual_bloch],
        "max_bloch_deviation": float(np.max(np.abs(predicted_bloch - actual_bloch))),
    }


# Each demo's `notes` in analysis.json.
DEMO_NOTES = {
    "stochastic-heisenberg": (
        "Pin-then-rotate preparation with an exchange-coupled environment; "
        "the process is exactly linear."
    ),
    "measurement-correlated": (
        "Preparation by von Neumann measurement on a correlated pair; the linear "
        "fit mispredicts held-out inputs while the bi-linear description is exact."
    ),
    "imperfect-pin": (
        "Rotation-only preparation on a 70/30 mixture of a pinned product state "
        "and an entangled remainder; the assumed-linear fit has negative eigenvalues. "
        "All parameters other than the 70% population weight are repository constants."
    ),
}


def cmd_demo(args) -> int:
    config = demo_scenario_config(args.name)
    out = args.name if args.out is None else args.out
    try:  # os.makedirs refuses an empty --out; Path("").mkdir would take it for "."
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ProcmapError(f"cannot write {out}: {exc.strerror or exc}") from exc
    out_dir = Path(out)

    # The dataset's digest is that of the scenario.json written below, byte for byte.
    scenario_bytes = jsonio.dumps(config).encode()
    dataset = simulate_scenario(parse_scenario(config, name=args.name), _sha256(scenario_bytes))
    lam = reconstruct_linear_map(dataset.subset(LINEAR4_LABELS))
    diag = map_diagnostics(lam)
    report = classify(dataset)
    analysis = {
        "demo": args.name,
        "verdict": report["verdict"],
        "min_eigenvalue": diag["min_eigenvalue"],
        "notes": DEMO_NOTES[args.name],
    }
    if args.name == "measurement-correlated":
        analysis["counterexample"] = _demo_counterexample(dataset, lam)
    _write_file(out_dir / "scenario.json", scenario_bytes)
    artifacts = {
        "dataset.json": dataset.to_json(),
        "linear_map.json": {"map": map_to_json(lam), "diagnostics": diag},
        "m_elements.json": elements_to_json(solve_M_elements(dataset)),
        "report.json": report,
        "analysis.json": analysis,
    }
    for name, obj in artifacts.items():
        _write_file(out_dir / name, jsonio.dumps(obj).encode())

    summary = {
        "demo": args.name,
        "out_dir": str(out_dir),
        "verdict": report["verdict"],
        "min_eigenvalue": diag["min_eigenvalue"],
        "files": ["scenario.json", *artifacts],
    }
    _write_stdout(jsonio.dumps(summary))
    return EXIT_OK


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="procmap",
        description="Simulate, reconstruct, and verify open-system process maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a scenario into a tomography dataset")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--out", help="write dataset JSON here instead of stdout")
    p_sim.add_argument("--shots", type=int, help="finite-shot mode: shots per measured quantity")
    p_sim.add_argument("--seed", type=int, help="seed for the finite-shot generator")
    p_sim.set_defaults(func=cmd_simulate)

    p_tomo = sub.add_parser("tomo", help="reconstruct a process map from a dataset")
    p_tomo.add_argument("dataset", help="dataset JSON file")
    p_tomo.add_argument("--mode", choices=("linear", "bilinear"), required=True)
    p_tomo.add_argument("--out", help="write result JSON here instead of stdout")
    p_tomo.set_defaults(func=cmd_tomo)

    p_ver = sub.add_parser("verify", help="run the 12-state linearity verification protocol")
    p_ver.add_argument("dataset", help="dataset JSON file")
    p_ver.add_argument("--tol-linear", type=float, default=DEFAULT_TOL_LINEAR, dest="tol_linear")
    p_ver.add_argument("--tol-bilinear", type=float, default=DEFAULT_TOL_BILINEAR, dest="tol_bilinear")
    p_ver.add_argument("--out", help="write report JSON here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="write a self-contained demo analysis bundle")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--out", help="bundle directory (default: ./<name>)")
    p_demo.set_defaults(func=cmd_demo)

    return parser, sub.choices


# Parsing leaves the parsers as they were, so one set serves every call in a process.
_parsers = functools.cache(_build_parsers)


def _parse_args(argv) -> argparse.Namespace:
    """The top-level parser's `parse_args(argv)`, parsing a command's arguments with its own sub-parser only."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:  # the top-level parser reports leftovers, under its own usage
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ProcmapError as exc:
        _diag(str(exc))
        return exc.exit_code


def run() -> None:
    """The process entry point: exit with `main()`'s code."""
    code = main()
    gc.freeze()  # the collections at interpreter exit then skip the heap (numpy's is most of it) it frees anyway
    sys.exit(code)


if __name__ == "__main__":
    run()
