"""The names that the benchmark's span tracer wraps must exist in procmap.

`perfbench/tracer.py` replaces each (module, attribute) of its `TARGETS` by a
wrapper, looking the attribute up in the owner's own namespace; a missing name
would otherwise surface only as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from procmap import jsonio
from procmap.cli import main
from procmap.scenarios import demo_scenario_config

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("procmap_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer_module()


@pytest.mark.parametrize("module_name, attr_path", [target[:2] for target in TRACER.TARGETS])
def test_every_traced_name_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(getattr(vars(owner)[attr], "__func__", vars(owner)[attr]))


def test_traced_simulate_counts_every_preparation(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(jsonio.dumps(demo_scenario_config("measurement-correlated")))
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert main(["simulate", str(scenario), "--out", str(tmp_path / "dataset.json")]) == 0
    finally:
        tracer.uninstall()
    # Twelve protocol labels and the mixed record, all in one stacked call of each primitive.
    names = [span[1] for span in tracer.spans]
    simulate = names.index("scenarios.simulate_scenario")
    for name in ("prep.prepare", "dynamics.run_process"):
        assert names.count(name) == 1, name
        assert tracer.spans[names.index(name)][4] == simulate, name
