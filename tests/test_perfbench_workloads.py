"""The benchmark's workloads run and pass their own checks on the package.

perfbench/workloads.py defines the workloads BENCHMARK.json declares.  Each
is built as perfbench/run.py builds it, and runs one op and its output check
on two inputs, then its final checks.  Nothing under perfbench/ is written to.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import cloee

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no __pycache__ in perfbench/
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
