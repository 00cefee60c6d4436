"""procmap benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload {demo-cli,qubit-sweep,wide-env} \
        --seed N --seconds S --trace {0,1} [--smoke]

The program is driven only through its public entry points: `python -m
procmap.cli ...` as a subprocess (demo-cli) and `procmap.cli.main(argv)`
in-process (qubit-sweep, wide-env), always with `--out`.  Load is one closed
loop with a single client: the next command starts when the previous one has
ended.  Every input is generated here from `--seed` and written with the
stdlib `json` module, so input generation never times the program's encoder.

`--trace 0` measures the end-to-end metrics with nothing installed.
`--trace 1` alternates untraced ops with ops run under span wrappers (see
tracer.py) and reports per-layer self times, counts and the tracing overhead.
`--smoke` shrinks the run (one set-up, one import probe, dimB = 2 on
wide-env) for the benchmark's own test.

The second-to-last stdout line is a report (provenance, workload sizes, error
rate, finite-shot verdict match, sample counts); the last line is one JSON
object with the keys correct, attempted, failed and metrics.  README.md beside
this file says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One single-threaded client: with a multi-threaded BLAS, every 128 x 128
# product waits for the other core, so timings follow the load of whatever
# else runs on the machine.  Single-threaded BLAS is no slower at these sizes.
# Set before numpy loads; subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("demo-cli", "qubit-sweep", "wide-env")
FAMILIES = ("stochastic-heisenberg", "measurement-correlated", "imperfect-pin")
# The exact-data class of each preparation method (the paper's three cases).
EXPECTED_VERDICT = {"stochastic": "Linear", "measurement": "Bilinear", "rotation_only": "Neither"}
SHOT_LEVELS = (None, 1000, 100000)
CELLS = tuple((family, shots) for family in FAMILIES for shots in SHOT_LEVELS)
T_RANGE = (0.1, 1.5)
ORACLE_TOL = 1e-9
WIDE_DIM_ENV = 64
SMOKE_DIM_ENV = 2
SETUP_REPEATS = 5
IMPORT_PROBES = 5
OP_TIMEOUT_S = 60
GAUGE_SAMPLES = 2  # gauge samples taken before each op
# Gauged metrics are in seconds at the machine speed where the gauge statistic
# they are scaled by takes this long (about the gauge's fastest time on the
# 2-core Intel Xeon machine the benchmark was written on).
GAUGE_REF_S = 0.001

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# (metric, span name, field of Tracer.totals, unit); each is summed over one op.
LAYER_METRICS = (
    ("cli.main_self_s", "cli.main", 0, "s"),
    ("jsonio.dumps_s", "jsonio.dumps", 0, "s"),
    ("jsonio.dumps_calls", "jsonio.dumps", 1, "count"),
    ("jsonio.dumps_bytes", "jsonio.dumps", 2, "bytes"),
    ("jsonio.matrix_from_json_s", "jsonio.matrix_from_json", 0, "s"),
    ("jsonio.matrix_from_json_entries", "jsonio.matrix_from_json", 2, "count"),
    ("scenarios.parse_scenario_s", "scenarios.parse_scenario", 0, "s"),
    ("scenarios.simulate_scenario_self_s", "scenarios.simulate_scenario", 0, "s"),
    ("prep.prepare_s", "prep.prepare", 0, "s"),
    ("prep.prepare_calls", "prep.prepare", 1, "count"),
    ("dynamics.run_process_s", "dynamics.run_process", 0, "s"),
    ("dynamics.run_process_calls", "dynamics.run_process", 1, "count"),
    ("dynamics.unitary_from_hamiltonian_s", "dynamics.unitary_from_hamiltonian", 0, "s"),
    ("records.dataset_from_json_s", "records.dataset_from_json", 0, "s"),
    ("linear_tomo.reconstruct_linear_map_s", "linear_tomo.reconstruct_linear_map", 0, "s"),
    ("linear_tomo.map_diagnostics_s", "linear_tomo.map_diagnostics", 0, "s"),
    ("bilinear_tomo.solve_M_elements_s", "bilinear_tomo.solve_M_elements", 0, "s"),
    ("bilinear_tomo.build_M_from_dynamics_s", "bilinear_tomo.build_M_from_dynamics", 0, "s"),
    ("bilinear_tomo.element_table_from_map_s", "bilinear_tomo.element_table_from_map", 0, "s"),
    ("verify.classify_s", "verify.classify", 0, "s"),
)


class SetupFailed(Exception):
    """The warm-up did not pass the correctness gate; nothing can be measured."""


# ---------------------------------------------------------------------------
# Input generation (numpy + stdlib json only)
# ---------------------------------------------------------------------------


def matrix_json(mat: np.ndarray) -> dict:
    """procmap's matrix wire format: {"rows", "cols", "data": [[re, im], ...]} row-major."""
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "data": np.stack([flat.real, flat.imag], axis=1).tolist(),
    }


def family_scenario(family: str, t: float) -> dict:
    """One of the paper's three cases as a scenario object, at evolution time t."""
    base = {"dimA": 2, "dimB": 2, "t": t, "protocol": "verify12"}
    if family == "imperfect-pin":
        pure = np.kron(np.diag([1.0, 0.0]), 0.5 * IDENTITY_2)
        chi = 0.25 * (np.kron(IDENTITY_2, IDENTITY_2) + 0.9 * np.kron(SIGMA_2, SIGMA_3))
        return {
            **base,
            "hamiltonian": matrix_json(np.kron(SIGMA_1, SIGMA_3)),
            "gamma0": matrix_json(0.7 * pure + 0.3 * chi),
            "preparation": {"method": "rotation_only"},
        }
    correlated = {"bloch_a": [0.0, 0.5, 0.0], "c23": 0.3}
    if family == "stochastic-heisenberg":
        return {**base, "hamiltonian": "heisenberg", "gamma0": correlated,
                "preparation": {"method": "stochastic"}}
    return {**base, "hamiltonian": "heisenberg", "gamma0": correlated,
            "preparation": {"method": "measurement"}, "mixed_bloch": [0.5, 0.0, 0.0]}


def wide_scenario(rng: np.random.Generator, dim_env: int) -> dict:
    """A qubit coupled to a dim_env environment: random H, full-rank gamma0, random t."""
    d = 2 * dim_env
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    hamiltonian = (a + a.conj().T) / (2.0 * math.sqrt(d))
    w = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
    gamma0 = w @ w.conj().T
    gamma0 = 0.5 * (gamma0 + gamma0.conj().T)
    gamma0 /= np.trace(gamma0).real
    direction = rng.standard_normal(3)
    return {
        "dimA": 2,
        "dimB": dim_env,
        "hamiltonian": matrix_json(hamiltonian),
        "t": float(rng.uniform(*T_RANGE)),
        "gamma0": matrix_json(gamma0),
        "preparation": {"method": "measurement"},
        "protocol": "verify12",
        "mixed_bloch": (0.5 * direction / np.linalg.norm(direction)).tolist(),
    }


def check_outputs(scenario: dict, exact: bool, bilinear: Path, report: Path):
    """Correctness gate for one simulate/tomo/verify chain.

    Returns (failure message or None, finite-shot verdict match or None).
    Finite-shot verdicts are never failures; they feed shot_verdict_match.
    """
    method = scenario["preparation"]["method"]
    verdict = json.loads(report.read_text())["verdict"]
    if not exact:
        return None, verdict == EXPECTED_VERDICT[method]
    if verdict != EXPECTED_VERDICT[method]:
        return f"{method} scenario gave verdict {verdict}, expected {EXPECTED_VERDICT[method]}", None
    if method == "measurement":
        oracle = json.loads(bilinear.read_text()).get("oracle_comparison")
        if oracle is None or not oracle["max_element_deviation"] <= ORACLE_TOL:
            return f"bi-linear oracle deviation {oracle} exceeds {ORACLE_TOL}", None
    return None, None


class Gauge:
    """A fixed mix of the kinds of work procmap does, timed between ops.

    Other tenants on a shared host slow every op down together for stretches
    of seconds to minutes.  The gauge (a small file write and read, stdlib JSON,
    float formatting, small numpy products and an eigensolve) slows down with
    them, so scaling a time by GAUGE_REF_S over a gauge statistic of the same
    kind (fastest for a fastest op, median for a median set-up) removes most
    of that drift from run-to-run comparisons (README.md, "Noise").  It never
    runs inside a timed op.
    """

    def __init__(self, work: Path):
        rng = np.random.default_rng(0)
        self.pairs = rng.standard_normal((150, 2)).tolist()
        self.mat = rng.standard_normal((4, 4))
        self.path = work / "gauge.json"
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(GAUGE_SAMPLES):
            start = perf_counter()
            self.path.write_text(json.dumps({"data": self.pairs}))
            obj = json.loads(self.path.read_text())
            ",\n".join(format(x, ".17g") for pair in obj["data"] for x in pair)
            m = self.mat
            for _ in range(20):
                m = np.kron(m[:2, :2], self.mat[:2, :2]) @ self.mat
            np.linalg.eigvalsh(self.mat + self.mat.T)
            self.samples.append(perf_counter() - start)

    def scale(self, seconds: float, statistic) -> float:
        """`seconds` at the machine speed where `statistic` of the samples is GAUGE_REF_S."""
        return seconds * GAUGE_REF_S / statistic(self.samples)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PROCMAP_NO_COLOR"] = "1"
    return env


class InProcessWorkload:
    """qubit-sweep and wide-env: one op is main(simulate), main(tomo linear),
    main(tomo bilinear), main(verify) on one freshly generated scenario."""

    in_process = True

    def __init__(self, name: str, seed: int, work: Path, smoke: bool):
        import procmap.cli

        self.cli = procmap.cli
        self.name = name
        self.kinds = len(CELLS) if name == "qubit-sweep" else 1
        self.seed = seed
        self.work = work
        self.dim_env = SMOKE_DIM_ENV if smoke else WIDE_DIM_ENV
        self.paths = {k: work / f"{k}.json" for k in ("scenario", "dataset", "linear", "bilinear", "report")}

    def sizes(self) -> dict:
        if self.name == "qubit-sweep":
            return {"dim_sys": 2, "dim_env": 2, "cells": len(CELLS), "shots": list(SHOT_LEVELS),
                    "t_range": list(T_RANGE), "commands_per_op": 4}
        return {"dim_sys": 2, "dim_env": self.dim_env, "joint_dim": 2 * self.dim_env,
                "t_range": list(T_RANGE), "commands_per_op": 4}

    def prepare(self, index):
        phase, i = index
        rng = np.random.default_rng([self.seed, 1 if phase == "warm" else 0, i])
        shot_args: list[str] = []
        if self.name == "qubit-sweep":
            family, shots = CELLS[i % len(CELLS)]
            scenario = family_scenario(family, float(rng.uniform(*T_RANGE)))
            if shots is not None:
                shot_args = ["--shots", str(shots), "--seed", str(int(rng.integers(2**31)))]
        else:
            scenario = wide_scenario(rng, self.dim_env)
        self.paths["scenario"].write_text(json.dumps(scenario))
        return scenario, shot_args

    def run(self, item, tracer) -> None:
        _, shot_args = item
        p = {k: str(v) for k, v in self.paths.items()}
        main = self.cli.main
        for argv in (
            ["simulate", p["scenario"], "--out", p["dataset"], *shot_args],
            ["tomo", p["dataset"], "--mode", "linear", "--out", p["linear"]],
            ["tomo", p["dataset"], "--mode", "bilinear", "--out", p["bilinear"]],
            ["verify", p["dataset"], "--out", p["report"]],
        ):
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"procmap {argv[0]} exited with code {code}")

    def check(self, item):
        scenario, shot_args = item
        return check_outputs(scenario, not shot_args, self.paths["bilinear"], self.paths["report"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DemoCliWorkload:
    """demo-cli: one op is one `python -m procmap.cli` subprocess, cycling through
    the three demos and the simulate -> tomo linear -> tomo bilinear -> verify chain."""

    in_process = False

    def __init__(self, name: str, seed: int, work: Path, smoke: bool):
        self.work = work
        self.env = child_env()
        rng = np.random.default_rng([seed, 2])
        self.chain_family = FAMILIES[seed % len(FAMILIES)]
        self.chain_t = float(rng.uniform(*T_RANGE))
        self.scenario = family_scenario(self.chain_family, self.chain_t)
        scenario_path = work / "chain-scenario.json"
        scenario_path.write_text(json.dumps(self.scenario))
        d = {k: str(work / f"chain-{k}.json") for k in ("dataset", "linear", "bilinear", "report")}
        self.commands = [["demo", name, "--out", str(work / f"bundle-{name}")] for name in FAMILIES] + [
            ["simulate", str(scenario_path), "--out", d["dataset"]],
            ["tomo", d["dataset"], "--mode", "linear", "--out", d["linear"]],
            ["tomo", d["dataset"], "--mode", "bilinear", "--out", d["bilinear"]],
            ["verify", d["dataset"], "--out", d["report"]],
        ]
        self.kinds = len(self.commands)
        self.reference: dict[int, dict[str, bytes]] = {}

    def sizes(self) -> dict:
        return {"commands_per_cycle": len(self.commands), "demos": list(FAMILIES),
                "chain_family": self.chain_family, "chain_t": self.chain_t}

    def prepare(self, index):
        return index[1] % len(self.commands)

    def run(self, k, tracer) -> None:
        argv = self.commands[k]
        spans_path = self.work / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "procmap.cli", *argv]
        else:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"procmap {argv[0]} exited with code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
        if tracer is not None:
            tracer.extend(json.loads(spans_path.read_text()), tracer.op)

    def _outputs(self, k: int) -> dict[str, bytes]:
        argv = self.commands[k]
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "demo":
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return {out.name: out.read_bytes()}

    def check(self, k):
        outputs = self._outputs(k)
        if k not in self.reference:
            # First (warm-up) run of this command: apply the semantic gate and
            # keep its bytes as the reference for every later run.
            failure = self._semantic_check(k, outputs)
            if failure is None:
                self.reference[k] = outputs
            return failure, None
        if outputs != self.reference[k]:
            return f"{' '.join(self.commands[k][:2])} output differs from its warm-up bytes", None
        return None, None

    def _semantic_check(self, k: int, outputs: dict[str, bytes]):
        argv = self.commands[k]
        if argv[0] == "demo":
            method = json.loads(outputs["scenario.json"])["preparation"]["method"]
            verdict = json.loads(outputs["analysis.json"])["verdict"]
            if verdict != EXPECTED_VERDICT[method]:
                return f"demo {argv[1]} gave verdict {verdict}, expected {EXPECTED_VERDICT[method]}"
            return None
        if argv[0] == "verify":  # the last command of the chain: both outputs exist
            return check_outputs(self.scenario, True, self.work / "chain-bilinear.json",
                                 self.work / "chain-report.json")[0]
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.ok: list[tuple[int, float, bool]] = []  # (op kind, seconds, traced)
        self.attempted = 0
        self.failures: list[str] = []
        self.shot_matches: list[bool] = []

    def latencies(self, traced: bool) -> list[float]:
        return [t for _, t, tr in self.ok if tr == traced]


def run_op(workload, index, tally: Tally | None, tracer: Tracer | None, gauge: Gauge | None = None):
    """Generate, run (timed) and check one op; a failure is recorded, never raised.

    With a tracer, the op runs with span wrappers installed and nothing else
    differs; without one, nothing is installed.  The gauge samples before the op.
    """
    item = workload.prepare(index)
    if gauge is not None:
        gauge.sample()
    if tracer is not None:
        tracer.op = index[1]
        if workload.in_process:
            tracer.install()
    start = perf_counter()
    try:
        workload.run(item, tracer)
        failure = None
    except (Exception, SystemExit) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    match = None
    if failure is None:
        try:
            failure, match = workload.check(item)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
    if tally is not None:
        tally.attempted += 1
        if failure is None:
            tally.ok.append((index[1] % workload.kinds, elapsed, tracer is not None))
            if match is not None:
                tally.shot_matches.append(match)
        else:
            tally.failures.append(failure)
    return failure


def measure(workload, seconds: float, tracer: Tracer | None, gauge: Gauge) -> Tally:
    """Closed loop for `seconds`.  With a tracer, odd ops are traced and even ops
    are not, so both halves see the same mix of op kinds and machine load."""
    tally = Tally()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        run_op(workload, ("run", i), tally, tracer if tracer is not None and i % 2 else None, gauge)
        i += 1
        if perf_counter() >= deadline and (tracer is None or i >= 2):
            return tally


def kind_min(tally: Tally) -> float:
    """Mean over op kinds of the fastest untraced op of that kind.

    On a machine shared with other tenants, ops slow down together for
    stretches of seconds, and the share of slow time differs from run to run;
    the fastest op of each kind does not depend on that share (README.md,
    "Noise").  Averaging over kinds keeps every cell or command in it.
    """
    best: dict[int, float] = {}
    for kind, t, traced in tally.ok:
        if not traced:
            best[kind] = min(t, best.get(kind, math.inf))
    return statistics.fmean(best.values())


def setup(workload, repeats: int, env: dict, work: Path) -> float:
    """Median wall time of: a fresh interpreter importing procmap.cli, generating
    the warm-up inputs and running them through the gate.  The first repeat
    also fills the bytecode cache."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import procmap.cli"], env=env, cwd=work,
                       check=True, timeout=OP_TIMEOUT_S)
        for i in range(workload.kinds):
            failure = run_op(workload, ("warm", i), None, None)
            if failure is not None:
                raise SetupFailed(f"warm-up op {i} failed: {failure}")
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_times(env: dict, work: Path, probes: int) -> tuple[float, float]:
    """Median (import procmap.cli, the same excluding numpy) from `-X importtime`."""
    totals, excl = [], []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import procmap.cli"],
                              env=env, cwd=work, check=True, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        total_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, module = int(parts[1]), parts[2]
            name = module.strip()
            depth = len(module) - len(module.lstrip()) - 1
            if depth == 0 and (name == "procmap" or name.startswith("procmap.")):
                total_us += cumulative
            if name == "numpy" and not numpy_us:
                numpy_us = cumulative
        totals.append(total_us * 1e-6)
        excl.append((total_us - numpy_us) * 1e-6)
    return statistics.median(totals), statistics.median(excl)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, sizes: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "procmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "sizes": sizes,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size and a single set-up, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "procmap" / "cli.py").is_file():
        sys.stderr.write(f"error: no procmap sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import procmap

    if Path(procmap.__file__).resolve().parent != (SRC / "procmap").resolve():
        sys.stderr.write(f"error: imported procmap from {procmap.__file__}, not {SRC}\n")
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return run(args, work)
    except SetupFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def run(args, work: Path) -> int:
    env = child_env()
    cls = DemoCliWorkload if args.workload == "demo-cli" else InProcessWorkload
    workload = cls(args.workload, args.seed, work, args.smoke)
    setup_s = setup(workload, 1 if args.smoke else SETUP_REPEATS, env, work)
    gauge = Gauge(work)

    if args.trace == 0:
        tally = measure(workload, args.seconds, None, gauge)
        metrics = {
            "setup_s": metric(gauge.scale(setup_s, statistics.median), "s"),
            "op_min_s": metric(gauge.scale(kind_min(tally), min), "s"),
            "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
        }
    else:
        import_s, import_excl_numpy_s = import_times(env, work, 1 if args.smoke else IMPORT_PROBES)
        tracer = Tracer()
        tally = measure(workload, args.seconds, tracer, gauge)
        traced_ops = sum(1 for _, _, traced in tally.ok if traced)
        totals = tracer.totals()
        metrics = {
            "cli.import_s": metric(import_s, "s"),
            "cli.import_excl_numpy_s": metric(import_excl_numpy_s, "s"),
        }
        for name, span, field, unit in LAYER_METRICS:
            metrics[name] = metric(totals.get(span, (0.0, 0, 0))[field] / max(traced_ops, 1), unit)
        untraced_s = statistics.median(tally.latencies(traced=False))
        traced_s = statistics.median(tally.latencies(traced=True))
        metrics["trace.untraced_op_p50_s"] = metric(untraced_s, "s")
        metrics["trace.traced_op_p50_s"] = metric(traced_s, "s")
        metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s - 1.0, "ratio")

    for failure in tally.failures[:5]:
        sys.stderr.write(f"failed op: {failure}\n")
    print(json.dumps({"report": report(args, workload, tally, setup_s, gauge.samples)}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


def report(args, workload, tally: Tally, setup_s: float, gauge_samples: list[float]) -> dict:
    """Provenance, sizes, and every end-to-end metric the notes name, with units.

    Op latencies here are wall times, not gauged.  The cli_run_* and
    pipeline_* figures are the same op latencies under the names used for a
    subprocess op and an in-process op.  Only untraced ops count.
    """
    lat = tally.latencies(traced=False)
    prefix = "cli_run" if args.workload == "demo-cli" else "pipeline"
    named = {
        "setup_s": metric(setup_s, "s"),
        f"{prefix}_min_s": metric(kind_min(tally), "s"),
        f"{prefix}_p50_s": metric(percentile(lat, 50), "s"),
        f"{prefix}_p90_s": metric(percentile(lat, 90), "s"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
        "error_rate": metric(len(tally.failures) / tally.attempted, "ratio"),
        "gauge_min_s": metric(min(gauge_samples), "s"),
        "gauge_p50_s": metric(statistics.median(gauge_samples), "s"),
    }
    if workload.in_process:
        named["pipelines_per_s"] = metric(len(lat) / sum(lat), "1/s")
    if tally.shot_matches:
        named["shot_verdict_match"] = metric(statistics.fmean(tally.shot_matches), "ratio")
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, workload.sizes()),
        "ops": tally.attempted,
        "ops_per_kind": len(lat) / workload.kinds,
        "finite_shot_ops": len(tally.shot_matches),
        "metrics": named,
    }


if __name__ == "__main__":
    sys.exit(main())
