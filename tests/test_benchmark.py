"""The benchmark's audit-energy outputs and its tracer's hooks, checked in
tier-1.

perfbench/workloads.py is imported by path, as the benchmark itself runs
it, so an engine change that alters an audit class, an energy figure or a
keyword the workloads pass fails here before the benchmark reads it as
incorrect output. perfbench/spans.py is imported the same way, so an
engine change that removes or renames a name the tracer wraps fails here
instead of silently dropping per-layer metrics from the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import orsnn.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SPANS = WORKLOADS.with_name("spans.py")


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


def test_the_tracer_finds_every_hook(monkeypatch):
    """A hook whose target is gone is skipped, and the metrics that need it
    vanish from the benchmark's output: every target must exist."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
