"""Per-layer measurement carrier filled during instrumented forward passes.

A SpikeRecord accumulates across batches: spike counts, input nonzero
fractions (the firing-rate proxy the energy model consumes) and binarity
of each arithmetic layer's literal input, at one T and H x W. It counts
no op: Network.layer_ops gives each layer's kind, class and FLOPs.
instrumented_pass is the one forward loop that fills it. Pruning
verification and firing-rate tracing read its spike counts, and
layer_table adds its input rates to Network.layer_ops, in the one table
that both the audit and the energy estimate report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EngineError
from .tensor import no_grad

SPIKING_KINDS = ("lif", "gate")


@dataclass
class LayerOps:
    """One op-counted layer, per sample, as construction fixes it. source
    names a real input's origin (a layer, a join, the network input)."""
    name: str
    kind: str
    klass: str
    flops_per_sample: int
    source: str | None
    is_encoder: bool


@dataclass
class LayerLine(LayerOps):
    """A LayerOps and the nonzero fraction of the input its layer read."""
    input_rate: float


def layer_table(network, record: "SpikeRecord") -> list[LayerLine]:
    """The classified line of every op-counted layer of network, in
    execution order, at the input size record ran at. A record without
    samples, or without an entry for one of the layers, is refused rather
    than read as a clean table."""
    if record.samples < 1:
        raise EngineError("the spike record holds no sample; the audit and the "
                          "energy estimate need at least one sample")
    lines = []
    for name, ops in network.layer_ops(*record.size).items():
        st = record.layers.get(name)
        if st is None:
            raise EngineError(f"spike record has no entry for layer {name!r}; "
                              "run an instrumented forward pass first")
        lines.append(LayerLine(**vars(ops), input_rate=st.input_rate))
    return lines


@dataclass
class LayerStats:
    name: str
    kind: str | None = None  # lif or gate; None for an op-counted layer's input
    in_nonzero: int = 0
    in_total: int = 0
    binary_input: bool = True
    out_spikes: float = 0.0
    out_total: int = 0

    @property
    def input_rate(self) -> float:
        """Nonzero fraction of the literal input (fr in the energy model)."""
        return self.in_nonzero / self.in_total if self.in_total else 0.0

    @property
    def output_rate(self) -> float:
        return self.out_spikes / self.out_total if self.out_total else 0.0


def census(arr: np.ndarray) -> tuple[int, bool]:
    """The nonzero count of arr and whether every element is exactly 0 or
    1, in two compare passes: arr is binary exactly when its nonzeros are
    all ones."""
    nonzero = int(np.count_nonzero(arr != 0))
    return nonzero, nonzero == int(np.count_nonzero(arr == 1))


@dataclass
class SpikeRecord:
    """size is the (H, W) of the inputs, as time_steps is their T.
    inputs=False keeps spike counts alone, all that firing_rates and
    spikes_per_sample read: note_input then takes no census."""
    layers: dict[str, LayerStats] = field(default_factory=dict)
    samples: int = 0
    time_steps: int = 0
    size: tuple[int, ...] = ()
    inputs: bool = True

    def note_input(self, name: str, literal: np.ndarray) -> None:
        if not self.inputs:
            return
        st = self.layers.setdefault(name, LayerStats(name))
        nonzero, binary = census(literal)
        st.in_nonzero += nonzero
        st.in_total += literal.size
        st.binary_input = st.binary_input and binary

    def note_spikes(self, name: str, kind: str, out: np.ndarray) -> LayerStats:
        st = self.layers.setdefault(name, LayerStats(name, kind))
        st.out_spikes += float(out.sum())
        st.out_total += out.size
        return st

    def spike_total(self) -> float:
        return sum(st.out_spikes for st in self.layers.values()
                   if st.kind in SPIKING_KINDS)

    def spikes_per_sample(self) -> float:
        return self.spike_total() / self.samples if self.samples else 0.0

    def firing_rates(self) -> dict[str, float]:
        """Output spike rate of every spiking layer (fraction of 1s)."""
        return {name: st.output_rate for name, st in self.layers.items()
                if st.kind in SPIKING_KINDS}


def instrumented_pass(network, batches) -> SpikeRecord:
    """Record one no-grad forward of each [T, N, C, H, W] batch: one array
    or an iterable of them. A layer typed binary that read a value other
    than 0 or 1 is an engine bug (EngineError), but for the head, which
    reads the global pool's averages of its typed spike map."""
    if isinstance(batches, np.ndarray):
        batches = [batches]
    rec = SpikeRecord()
    with no_grad():
        for batch in batches:
            network.forward(batch, record=rec, training=False)
    for ops in network.layer_ops(*rec.size).values() if rec.samples else ():
        st = rec.layers.get(ops.name)
        if ops.source is None and st is not None and ops.kind != "fc" and not st.binary_input:
            raise EngineError(f"{ops.name} is typed binary by construction but read "
                              "a value other than 0 or 1: an engine bug")
    return rec
