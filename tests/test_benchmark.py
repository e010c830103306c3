"""The benchmark's audit-energy outputs, checked in tier-1.

perfbench/workloads.py is imported by path, as the benchmark itself runs
it, so an engine change that alters an audit class, an energy figure or a
keyword the workloads pass fails here before the benchmark reads it as
incorrect output.
"""

import importlib.util
import json
import sys
from pathlib import Path

import orsnn.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_audit_energy_outputs_match_the_reference(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    workload = bench.WORKLOADS["audit-energy"]
    runner = bench.Runner(orsnn.cli)
    work = tmp_path / "audit-energy"
    workload.prepare(orsnn.cli, work, seed=0)
    seen, _ = workload.outputs(runner, work)
    workload.finish(runner, work)
    assert runner.failures == []
    assert seen == json.loads(bench.REFERENCE.read_text())
