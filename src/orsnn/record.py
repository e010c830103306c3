"""Per-layer measurement carrier filled during instrumented forward passes.

A SpikeRecord accumulates across batches: spike counts, input nonzero
fractions (the firing-rate proxy the energy model consumes), binarity of
each arithmetic layer's audited input, and arithmetic-op counts. It is
the single source the audit, energy and pruning reports read from, and
instrumented_pass is the one forward loop that fills it for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, no_grad

SPIKING_KINDS = ("lif", "gate")


def layer_class(st: "LayerStats") -> str:
    """MAC/AC classification shared by the auditor and the energy model.

    Attention transforms run on real-valued pooled descriptors and are
    MAC by policy; their pooling reductions are AC by policy. Feature
    conv/fc layers are AC exactly when their audited input is binary,
    with the encoder conv forced MAC.
    """
    if st.kind in ("attn_fc", "attn_conv"):
        return "MAC"
    if st.kind == "attn_pool":
        return "AC"
    if st.is_encoder or not st.binary_input:
        return "MAC"
    return "AC"


@dataclass
class LayerStats:
    name: str
    kind: str
    is_encoder: bool = False
    total_flops: int = 0
    in_nonzero: int = 0
    in_total: int = 0
    binary_input: bool = True
    max_nonbinary: float = 0.0
    out_spikes: float = 0.0
    out_total: int = 0

    @property
    def input_rate(self) -> float:
        """Nonzero fraction of the literal input (fr in the energy model)."""
        return self.in_nonzero / self.in_total if self.in_total else 0.0

    @property
    def output_rate(self) -> float:
        return self.out_spikes / self.out_total if self.out_total else 0.0


def binarity(arr: np.ndarray) -> tuple[bool, float]:
    """Whether every element is exactly 0 or 1, and the largest offender."""
    mask = (arr == 0) | (arr == 1)
    if mask.all():
        return True, 0.0
    return False, float(np.abs(arr[~mask]).max())


@dataclass
class SpikeRecord:
    layers: dict[str, LayerStats] = field(default_factory=dict)
    samples: int = 0
    time_steps: int = 0

    def stats(self, name: str, kind: str) -> LayerStats:
        if name not in self.layers:
            self.layers[name] = LayerStats(name=name, kind=kind)
        return self.layers[name]

    def note_input(self, name: str, kind: str, literal: np.ndarray,
                   audit_ref: np.ndarray, flops: int,
                   is_encoder: bool = False) -> LayerStats:
        st = self.stats(name, kind)
        st.is_encoder = st.is_encoder or is_encoder
        st.total_flops += flops
        st.in_nonzero += int(np.count_nonzero(literal))
        st.in_total += literal.size
        ok, worst = binarity(audit_ref)
        st.binary_input = st.binary_input and ok
        st.max_nonbinary = max(st.max_nonbinary, worst)
        return st

    def note_spikes(self, name: str, kind: str, out: np.ndarray) -> LayerStats:
        st = self.stats(name, kind)
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
    """Record one no-grad, non-strict forward of each [T, N, C, H, W] batch:
    one array or Tensor, or an iterable of them."""
    if isinstance(batches, (np.ndarray, Tensor)):
        batches = [batches]
    rec = SpikeRecord()
    with no_grad():
        for batch in batches:
            network.forward(batch, record=rec, training=False, strict=False)
    return rec
