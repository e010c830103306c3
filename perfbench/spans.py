"""Per-module timing of the engine, taken from outside the program.

`Tracer.install()` wraps public functions of the engine's modules so each
call records a span (name, start, end, parent, phase) in memory. Layer
forwards also claim the autograd nodes they created: the walk follows
`Tensor.parents` from the layer's output back to its input and wraps each
node's `backward_fn`, so backward time is charged to the layer that made
the node. `uninstall()` restores every original.

Self time of a span is its duration minus its children's. A training
step runs from the training forward to the end of `Adam.step`. Forward
and backward layer times are reported per training step on workloads
that train, and per network forward pass on those that do not.

A hook whose target no longer exists is skipped; the metrics that need it
are left out of the result.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = {  # span name -> (module, forward to wrap)
    "tensor.conv2d": ("layers", "ConvLayer.forward"),
    "tensor.batchnorm2d": ("layers", "BatchNormLayer.forward"),
    "neuron.lif": ("layers", "LIFLayer.forward"),
    "attention.gate": ("attention", "AttentionGate.forward"),
}
CALLS = {  # span name -> [(module, function)]; every orsnn alias is wrapped
    "record.note": [("record", "SpikeRecord.note_input"),
                    ("record", "SpikeRecord.note_spikes")],
    "residual.audit": [("residual", "audit_spike_drivenness")],
    "metrics.energy": [("metrics", "estimate_energy")],
    "metrics.prune": [("metrics", "apply_pruning")],
    "checkpoint.save": [("checkpoint", "save_checkpoint")],
    "checkpoint.load": [("checkpoint", "load_checkpoint")],
    "data.load_events": [("data", "load_events")],
}
GRAPH = "tensor.graph"  # Tensor.parents and Tensor.backward_fn


class _Timed:
    """A node's backward_fn, timed and charged to the layer that made it."""

    __slots__ = ("fn", "owner", "tracer")

    def __init__(self, fn, owner, tracer):
        self.fn, self.owner, self.tracer = fn, owner, tracer

    def __call__(self, g):
        t0 = time.perf_counter()
        try:
            return self.fn(g)
        finally:
            dt = time.perf_counter() - t0
            self.tracer.node_s[self.owner] += dt
            if self.tracer.stack:
                self.tracer.spans[self.tracer.stack[-1]][5] += dt


class Tracer:
    """Spans and backward attribution of the traced cycles of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, child_s]
        self.stack: list[int] = []
        self.node_s: dict[str, float] = defaultdict(float)
        self.step_nodes: list[dict[str, int]] = []
        self.data_gaps: list[float] = []
        self.passes = 0
        self.instrumented = 0
        self.phase = "command"
        self.missing: set[str] = set()
        self._step = None
        self._last_step_end = None
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.phase, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            span = self.spans[top]
            span[2] = now
            if span[3] is not None:
                self.spans[span[3]][5] += now - span[1]
            if top == index:
                return

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    # -- backward attribution ------------------------------------------------

    def claim(self, out, inputs, owner: str) -> None:
        """Charge every node between `inputs` and `out` to `owner`."""
        if GRAPH in self.missing:
            return
        i = self.open("trace")
        stop = {id(t) for t in inputs}
        todo = [out]
        while todo:
            node = todo.pop()
            fn = node.backward_fn
            if fn is None or isinstance(fn, _Timed) or id(node) in stop:
                continue
            node.backward_fn = _Timed(fn, owner, self)
            todo.extend(node.parents)
        self.close(i)

    def _count_nodes(self, root) -> dict[str, int]:
        """Nodes reachable from the loss, by owner; unclaimed ones are 'other'."""
        counts: dict[str, int] = defaultdict(int)
        seen = set()
        todo = [root]
        while todo:
            node = todo.pop()
            if id(node) in seen or node.backward_fn is None:
                continue
            seen.add(id(node))
            if not isinstance(node.backward_fn, _Timed):
                node.backward_fn = _Timed(node.backward_fn, "other", self)
            counts[node.backward_fn.owner] += 1
            todo.extend(node.parents)
        return counts

    # -- hooks ----------------------------------------------------------------

    def _patch(self, name: str, module: str, path: str, make) -> None:
        """Replace orsnn.<module>.<path> by make(original), including every
        alias of a module-level function in other orsnn modules. A missing
        target marks the span `name` missing."""
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(f"orsnn.{module}")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(name)
            return
        wrapper = make(original)
        targets = [owner] if outer else [
            m for key, m in list(sys.modules.items())
            if key.split(".")[0] == "orsnn" and vars(m).get(attr) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        from orsnn import tensor
        if not {"backward_fn", "parents"} <= set(dir(tensor.Tensor)):
            self.missing.add(GRAPH)
        for name, (module, path) in LAYERS.items():
            self._patch(name, module, path, lambda fn, name=name: self._layer(name, fn))
        self._patch("residual.join", "residual", "join", self._join)
        for name, targets in CALLS.items():
            for module, path in targets:
                self._patch(name, module, path, lambda fn, name=name: self._timed(name, fn))
        self._patch("tensor.backward", "tensor", "backward", self._backward)
        self._patch("network.forward", "network", "Network.forward", self._network_forward)
        self._patch("training.adam", "training", "Adam.step", self._adam_step)
        try:  # only train()'s validation pass, not the eval command
            import orsnn.training as training
            self._patches.append((training, "evaluate", training.evaluate))
            training.evaluate = self._validate(training.evaluate)
        except (ImportError, AttributeError):
            self.missing.add("training.validate")

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _layer(self, name, fn):
        def forward(layer, x, ctx, *args, **kwargs):
            i = self.open(name)
            try:
                out = fn(layer, x, ctx, *args, **kwargs)
            finally:
                self.close(i)
            self.claim(out, (x,), name)
            return out
        return forward

    def _join(self, fn):
        def join(x, y, *args, **kwargs):
            i = self.open("residual.join")
            try:
                out = fn(x, y, *args, **kwargs)
            finally:
                self.close(i)
            self.claim(out, (x, y), "residual.join")
            return out
        return join

    def _backward(self, fn):
        def backward(root, *args, **kwargs):
            if GRAPH not in self.missing:
                i = self.open("trace")
                self.step_nodes.append(self._count_nodes(root))
                self.close(i)
            i = self.open("tensor.backward")
            try:
                return fn(root, *args, **kwargs)
            finally:
                self.close(i)
        return backward

    def _network_forward(self, fn):
        def forward(net, x, *args, **kwargs):
            self.passes += 1
            self.instrumented += kwargs.get("record") is not None
            if kwargs.get("training"):
                if self._last_step_end is not None:
                    self.data_gaps.append(time.perf_counter() - self._last_step_end)
                if self._step is not None:  # the previous step never reached Adam
                    self.close(self._step)
                self.phase = "step"
                self._step = self.open("training.step")
            i = self.open("network.forward")
            try:
                return fn(net, x, *args, **kwargs)
            finally:
                self.close(i)
        return forward

    def _adam_step(self, fn):
        def step(opt, *args, **kwargs):
            i = self.open("training.adam")
            try:
                return fn(opt, *args, **kwargs)
            finally:
                self.close(i)
                if self._step is not None:
                    self.close(self._step)
                    self._step = None
                self.phase = "command"
                self._last_step_end = time.perf_counter()
        return step

    def _validate(self, fn):
        def evaluate(*args, **kwargs):
            self._last_step_end = None
            prev, self.phase = self.phase, "validate"
            i = self.open("training.validate")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                self.phase = prev
        return evaluate

    # -- results --------------------------------------------------------------

    def metrics(self, import_ms: float, overhead_pct: float) -> dict:
        """Per-module metrics as {name: (value, unit)}; see README.md."""
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        total_self: dict[str, float] = defaultdict(float)
        dur: dict[str, list[float]] = defaultdict(list)
        for name, t0, t1, _, phase, child in self.spans:
            self_s[name, phase] += t1 - t0 - child
            total_self[name] += t1 - t0 - child
            dur[name].append(t1 - t0)
        steps = len(dur["training.step"])
        units = steps or self.passes

        def fwd(name):  # ms per training step, or per forward pass
            s = self_s[name, "step"] if steps else total_self[name]
            return s / units * 1e3 if units else 0.0

        def bwd(owner):
            return self.node_s[owner] / steps * 1e3 if steps else 0.0

        def per_call(name):
            return total_self[name] / len(dur[name]) * 1e3 if dur[name] else 0.0

        def p50(values):
            return statistics.median(values) * 1e3 if values else 0.0

        def nodes(owner=None):
            per_step = [sum(c.values()) if owner is None else c.get(owner, 0)
                        for c in self.step_nodes]
            return float(statistics.median(per_step)) if per_step else 0.0

        if steps:
            loose = self_s["training.step", "step"] + self_s["network.forward", "step"]
        else:
            loose = total_self["network.forward"]
        conv, bn, lif, gate, join = ("tensor.conv2d", "tensor.batchnorm2d", "neuron.lif",
                                     "attention.gate", "residual.join")
        net, adam = "network.forward", "training.adam"
        graph = [GRAPH, "tensor.backward"]
        note = total_self["record.note"] / self.instrumented * 1e3 if self.instrumented else 0.0
        rows = [  # (metric, value, unit, hooks it needs)
            ("tensor.conv2d_fwd_ms", fwd("tensor.conv2d"), "ms", [conv]),
            ("tensor.conv2d_bwd_ms", bwd("tensor.conv2d"), "ms", [conv, *graph]),
            ("tensor.batchnorm2d_fwd_ms", fwd("tensor.batchnorm2d"), "ms", [bn]),
            ("tensor.batchnorm2d_bwd_ms", bwd("tensor.batchnorm2d"), "ms", [bn, *graph]),
            ("neuron.lif_fwd_ms", fwd("neuron.lif"), "ms", [lif]),
            ("neuron.lif_bwd_ms", bwd("neuron.lif"), "ms", [lif, *graph]),
            ("neuron.lif_nodes_per_step", nodes("neuron.lif"), "count", [lif, *graph]),
            ("attention.gate_fwd_ms", fwd("attention.gate"), "ms", [gate]),
            ("attention.gate_bwd_ms", bwd("attention.gate"), "ms", [gate, *graph]),
            ("residual.join_fwd_ms", fwd("residual.join"), "ms", [join]),
            ("residual.join_bwd_ms", bwd("residual.join"), "ms", [join, *graph]),
            ("tensor.nodes_per_step", nodes(), "count", graph),
            ("tensor.backward_self_ms",
             total_self["tensor.backward"] / steps * 1e3 if steps else 0.0, "ms", graph),
            ("record.note_ms", note, "ms", ["record.note", net]),
            ("residual.audit_ms", per_call("residual.audit"), "ms", ["residual.audit"]),
            ("metrics.energy_ms", per_call("metrics.energy"), "ms", ["metrics.energy"]),
            ("metrics.prune_ms", per_call("metrics.prune"), "ms", ["metrics.prune"]),
            ("training.step_count", float(steps), "count", [net, adam]),
            ("training.step_ms_p50", p50(dur["training.step"]), "ms", [net, adam]),
            ("training.validate_ms", p50(dur["training.validate"]), "ms", ["training.validate"]),
            ("training.data_ms", p50(self.data_gaps), "ms", [net, adam]),
            ("training.adam_ms",
             sum(dur["training.adam"]) / steps * 1e3 if steps else 0.0, "ms", [adam]),
            ("checkpoint.save_ms", p50(dur["checkpoint.save"]), "ms", ["checkpoint.save"]),
            ("checkpoint.load_ms", p50(dur["checkpoint.load"]), "ms", ["checkpoint.load"]),
            ("data.load_events_ms", p50(dur["data.load_events"]), "ms", ["data.load_events"]),
            ("network.pass_count", float(self.passes), "count", [net]),
            ("cli.import_ms", import_ms, "ms", []),
            ("trace.overhead_pct", overhead_pct, "%", []),
            ("trace.unattributed_ms", loose / units * 1e3 if units else 0.0, "ms", [net]),
        ]
        return {name: (value, unit) for name, value, unit, needs in rows
                if not self.missing.intersection(needs)}

    def dump(self, path) -> None:
        """Write the spans kept in memory, with the backward attribution."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "phase", "child_s"],
            "spans": [[n, s - t0, e - t0, p, ph, c] for n, s, e, p, ph, c in self.spans],
            "backward_s_by_owner": dict(self.node_s),
            "nodes_per_step_by_owner": self.step_nodes[:1],
            "missing_hooks": sorted(self.missing),
        }))
