"""Smoke test of the benchmark: every workload at the smallest size, no timing gate.

Checks that each run emits every metric named in BENCHMARK.json with its unit
and no failed op, that the input generators give each family's exact-data
verdict across several seeds, and that the benchmark refuses to run without
the program's sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_bench():
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("procmap_perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    prefix = "cli_run" if workload == "demo-cli" else "pipeline"
    expected = {"setup_s", "peak_rss_mb", "error_rate", "gauge_min_s", "gauge_p50_s",
                f"{prefix}_min_s", f"{prefix}_p50_s", f"{prefix}_p90_s"}
    if workload != "demo-cli":
        expected.add("pipelines_per_s")
    if workload == "qubit-sweep" and report["finite_shot_ops"]:
        expected.add("shot_verdict_match")
    assert set(report["metrics"]) == expected
    assert report["metrics"]["error_rate"]["value"] == 0
    assert report["provenance"]["seed"] == 3


@pytest.mark.parametrize("seed", range(4))
def test_generators_give_family_verdicts(seed, tmp_path):
    bench = _load_bench()
    for name, ops in (("qubit-sweep", len(bench.CELLS)), ("wide-env", 2)):
        workload = bench.InProcessWorkload(name, seed, tmp_path, smoke=True)
        for i in range(ops):
            assert bench.run_op(workload, ("run", i), None, None) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "qubit-sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
