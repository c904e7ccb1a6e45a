"""The benchmark's workloads run and pass their own checks on the package.

perfbench/workloads.py defines the workloads BENCHMARK.json declares.  Each
is built as perfbench/run.py builds it, and runs one op and its output check
on two inputs, then its final checks.  The per-layer targets of
perfbench/tracer.py that the metrics read still resolve: the tracer skips a
missing one, and its metrics then read 0.  Nothing under perfbench/ is
written to.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import cloee

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


# The tracer's targets that the package still has; perfbench/tracer.py also
# lists ten that are gone and read 0 (ROADMAP item 1 replaces the tracer).
LIVE_FUNCTIONS = ("shr_success", "solve_mode", "snap_to_grid", "cloee", "exhaustive_search",
                  "run_sweep", "rows_to_csv", "compute_curves", "emit_curves",
                  "emit_fixed_distance_curves", "render_lines", "parse_scenario",
                  "load_scenario", "main")
LIVE_METHODS = ("__init__", "eta", "rate")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no __pycache__ in perfbench/


@pytest.fixture
def bench(perfbench, tmp_path):
    source = importlib.import_module("source")
    workloads = importlib.import_module("workloads")
    importlib.import_module("cloee.cli")   # the package does not import its CLI
    text = source.SCENARIO.read_text()
    ctx = workloads.Context(cloee=cloee, scenario_text=text,
                            scenario=cloee.scenario.parse_scenario(text, str(source.SCENARIO)),
                            work_dir=tmp_path, cpus=set())
    return workloads, ctx


def test_every_workload_passes_its_checks(bench):
    workloads, ctx = bench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
    for name, kind in workloads.WORKLOADS.items():
        workload = kind(ctx, 1, 2)
        assert len(workload.inputs) == 2, name
        for x in workload.inputs:
            assert workload.check(x, workload.prepare(x)()) is None, (name, x)
        assert all(failure is None for failure in workload.final_checks()), name


def test_live_tracer_targets_resolve(perfbench):
    # Resolved as Tracer.install does: a function by module attribute, a
    # method from its class's own dict.
    tracer = importlib.import_module("tracer")
    functions = {attr: module for module, attr, _ in tracer.FUNCTIONS}
    for attr in LIVE_FUNCTIONS:
        assert callable(getattr(importlib.import_module(functions[attr]), attr, None)), attr
    methods = [(module, cls, attr) for module, cls, attr, _ in tracer.METHODS
               if attr in LIVE_METHODS]
    assert [attr for *_, attr in methods] == list(LIVE_METHODS)
    for module, cls, attr in methods:
        assert callable(vars(getattr(importlib.import_module(module), cls)).get(attr)), attr
    # The ModeMetrics builds per distance are counted by this attribute.
    assert cloee.LinkModel().env(1.0)[0].distance == 1.0
