"""Command-line surface: simulate, tomo, verify, and demo.

stdout carries JSON only; human diagnostics go to stderr (ANSI-colored on a
terminal unless PROCMAP_NO_COLOR is set).  Exit codes, each the `exit_code`
of the `ProcmapError` subclasses named:
  0  success
  2  ScenarioError, InvalidMeasurement, NotStrictlyMixed: malformed config or dataset,
     including a matrix entry that is not a JSON number (a string or a bool), or an
     input file that is unreadable, not UTF-8 or not JSON (including an integer
     longer than Python's 4,300-digit decoding limit);
     ProcmapError itself: a --tol-linear or --tol-bilinear that is not a finite
     non-negative number, or an --out that cannot be written (a missing
     directory, or for `demo` an existing file)
  3  ZeroProbabilityOutcome, ZeroGamma: zero-probability preparation or record
  4  MissingRecord: missing record labels
  5  NotAFrame: input states that do not form a tomography frame

`tomo --mode bilinear` reports its fit's deviation from the dataset's `oracle`
table (`oracle_comparison`), which `simulate` writes for measurement preparation
only; a dataset without `oracle` gets no comparison.  `metadata.scenario_sha256`
is the sha256 of the scenario file's bytes, provenance only: no command reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import jsonio
# build_M_from_dynamics and element_table_from_map stay bound here, unused, so
# that perfbench/tracer.py can wrap every bi-linear layer under procmap.cli.
from .bilinear_tomo import build_M_from_dynamics, element_table_from_map, solve_M_elements
from .errors import EXIT_OK, ProcmapError
from .linear_tomo import apply_linear_map, map_diagnostics, reconstruct_linear_map
from .qstate import bloch_vector
from .records import LINEAR4_LABELS, MIXED_LABEL, NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset
from .scenarios import DEMO_NAMES, ScenarioError, demo_scenario_config, parse_scenario, simulate_scenario
from .verify import classify


def _diag(message: str) -> None:
    if sys.stderr.isatty() and not os.environ.get("PROCMAP_NO_COLOR"):
        sys.stderr.write(f"\x1b[31merror:\x1b[0m {message}\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def _write_bytes(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ProcmapError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_output(payload: dict, out: str | None) -> None:
    text = jsonio.dumps(payload)
    if out:
        _write_bytes(Path(out), text.encode())
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> tuple[bytes, dict]:
    """The file's bytes, and the JSON object their UTF-8 text holds."""
    try:
        raw = Path(path).read_bytes()
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read JSON from {path}: {exc}") from exc
    except ValueError as exc:  # json.loads refuses an integer beyond Python's digit limit
        raise ScenarioError(f"{path} holds a JSON integer of more than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} does not hold a JSON object")
    return raw, obj


def _sha256(data: bytes) -> str:
    import hashlib  # here, not at the top: only simulate and demo pay for OpenSSL's _hashlib

    return hashlib.sha256(data).hexdigest()


def _load_dataset(path: str) -> Dataset:
    obj = _load_json(path)[1]
    try:
        return Dataset.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed dataset {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    raw, obj = _load_json(args.scenario)
    digest = _sha256(raw)
    del raw  # the scenario's bytes are not kept alive through the simulation
    for key in ("shots", "seed"):
        if getattr(args, key) is not None:
            obj[key] = getattr(args, key)
    dataset = simulate_scenario(parse_scenario(obj, name=Path(args.scenario).stem), digest)
    _write_output(dataset.to_json(), args.out)
    return EXIT_OK


def _tomo_linear(dataset: Dataset) -> dict:
    records = dataset.subset(LINEAR4_LABELS)
    lam = reconstruct_linear_map(records)
    diag = map_diagnostics(lam)
    return {"mode": "linear", "map": lam.to_json(), "diagnostics": diag.to_json()}


def _tomo_bilinear(dataset: Dataset) -> dict:
    mixed = dataset.get(MIXED_LABEL) if MIXED_LABEL in dataset.labels() else None
    table = solve_M_elements(dataset.subset(NINE_STATE_LABELS), mixed_record=mixed)
    payload = {"mode": "bilinear", "elements": table.to_json()}
    if dataset.oracle is not None:
        deviation = np.max(np.abs(table.elements - dataset.oracle[: len(table.elements)]))
        payload["oracle_comparison"] = {"max_element_deviation": float(deviation)}
    return payload


def cmd_tomo(args) -> int:
    dataset = _load_dataset(args.dataset)
    payload = _tomo_linear(dataset) if args.mode == "linear" else _tomo_bilinear(dataset)
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    for option, tol in (("--tol-linear", args.tol_linear), ("--tol-bilinear", args.tol_bilinear)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ProcmapError(f"{option} must be a finite non-negative number, got {tol}")
    dataset = _load_dataset(args.dataset)
    report = classify(
        dataset.subset(TWELVE_STATE_LABELS),
        tol_linear=args.tol_linear,
        tol_bilinear=args.tol_bilinear,
    )
    _write_output(report.to_json(), args.out)
    return EXIT_OK


def _demo_counterexample(dataset: Dataset, lam) -> dict:
    """Linear prediction vs measured output for the held-out 2- input."""
    rec = dataset.get("2-")
    predicted = apply_linear_map(lam, rec.input)
    predicted_bloch = bloch_vector(predicted)
    actual_bloch = bloch_vector(rec.output)
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
    out_dir = Path(args.out or args.name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProcmapError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc

    # The dataset's digest is that of the scenario.json written below, byte for byte.
    scenario_bytes = jsonio.dumps(config).encode()
    dataset = simulate_scenario(parse_scenario(config, name=args.name), _sha256(scenario_bytes))
    lam = reconstruct_linear_map(dataset.subset(LINEAR4_LABELS))
    diag = map_diagnostics(lam).to_json()
    report = classify(dataset.subset(TWELVE_STATE_LABELS))
    analysis = {
        "demo": args.name,
        "verdict": report.verdict,
        "min_eigenvalue": diag["min_eigenvalue"],
        "notes": DEMO_NOTES[args.name],
    }
    if args.name == "measurement-correlated":
        analysis["counterexample"] = _demo_counterexample(dataset, lam)
    _write_bytes(out_dir / "scenario.json", scenario_bytes)
    artifacts = {
        "dataset.json": dataset.to_json(),
        "linear_map.json": {"map": lam.to_json(), "diagnostics": diag},
        "m_elements.json": _tomo_bilinear(dataset)["elements"],
        "report.json": report.to_json(),
        "analysis.json": analysis,
    }
    for name, obj in artifacts.items():
        _write_bytes(out_dir / name, jsonio.dumps(obj).encode())

    summary = {
        "demo": args.name,
        "out_dir": str(out_dir),
        "verdict": report.verdict,
        "min_eigenvalue": diag["min_eigenvalue"],
        "files": ["scenario.json", *artifacts],
    }
    sys.stdout.write(jsonio.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_ver.add_argument("--tol-linear", type=float, default=1e-6, dest="tol_linear")
    p_ver.add_argument("--tol-bilinear", type=float, default=1e-6, dest="tol_bilinear")
    p_ver.add_argument("--out", help="write report JSON here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="write a self-contained demo analysis bundle")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--out", help="bundle directory (default: ./<name>)")
    p_demo.set_defaults(func=cmd_demo)

    return parser


# Parsing leaves the parser as it was, so one serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ProcmapError as exc:
        _diag(str(exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
