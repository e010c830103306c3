"""The MAC/AC energy model, firing-rate traces, and natural-pruning
detection and application.

Energy per sample follows the additive model over record.layer_table:
a MAC-class layer pays the full multiply-accumulate price for every op;
an AC-class layer pays the accumulate price scaled by the nonzero
fraction of its input. Classes and FLOPs come from the network's
construction (Network.layer_ops), input rates from the record.
Constants default to 4.6 pJ per MAC and 0.9 pJ per AC (45 nm process
figures).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .data import csv_column
from .errors import DataFormatError, EngineError, PruneRefused
from .record import (SPIKING_KINDS, LayerLine, SpikeRecord, instrumented_pass,
                     layer_table)
from .residual import AUDIT_POLICY, JoinMode


@dataclass(frozen=True)
class EnergyModel:
    e_mac_pj: float = 4.6
    e_ac_pj: float = 0.9


@dataclass
class EnergyLine(LayerLine):
    ops_per_sample: float
    energy_pj: float


@dataclass
class EnergyReport:
    lines: list[EnergyLine]
    model: EnergyModel
    samples: int
    time_steps: int
    spikes_per_sample: float
    spikes_per_sample_per_step: float
    spikes_per_neuron: float
    spikes_per_neuron_per_step: float
    policy: str = AUDIT_POLICY

    @property
    def mac_ops_per_sample(self) -> float:
        return sum(ln.ops_per_sample for ln in self.lines if ln.klass == "MAC")

    @property
    def ac_ops_per_sample(self) -> float:
        return sum(ln.ops_per_sample for ln in self.lines if ln.klass == "AC")

    @property
    def energy_pj_per_sample(self) -> float:
        return sum(ln.energy_pj for ln in self.lines)

    @property
    def energy_uj_per_sample(self) -> float:
        return self.energy_pj_per_sample / 1e6

    @property
    def energy_mj_per_sample(self) -> float:
        return self.energy_pj_per_sample / 1e9

    def render(self) -> str:
        out = [f"# energy estimate over {self.samples} samples, T={self.time_steps}",
               f"# model: {self.model.e_mac_pj} pJ/MAC, {self.model.e_ac_pj} pJ/AC",
               f"# {self.policy}",
               f"{'layer':32s} {'kind':10s} {'class':5s} {'FLOPs/sample':>14s} "
               f"{'input_rate':>10s} {'ops/sample':>14s} {'energy':>12s}"]
        for ln in self.lines:
            out.append(f"{ln.name:32s} {ln.kind:10s} {ln.klass:5s} "
                       f"{ln.flops_per_sample:14.1f} {ln.input_rate:10.6f} "
                       f"{ln.ops_per_sample:14.1f} {_format_pj(ln.energy_pj):>12s}")
        out.append(f"total MAC ops/sample: {self.mac_ops_per_sample:.1f}")
        out.append(f"total AC ops/sample:  {self.ac_ops_per_sample:.1f}")
        out.append(f"total energy/sample:  {_format_pj(self.energy_pj_per_sample)} "
                   f"({self.energy_pj_per_sample:.3f} pJ = "
                   f"{self.energy_uj_per_sample:.6f} uJ = "
                   f"{self.energy_mj_per_sample:.9f} mJ)")
        out.append(f"spikes/sample: {self.spikes_per_sample:.2f} "
                   f"({self.spikes_per_sample_per_step:.2f} per step); "
                   f"spikes/neuron: {self.spikes_per_neuron:.4f} per sample, "
                   f"{self.spikes_per_neuron_per_step:.4f} per step")
        return "\n".join(out)

    def rows(self) -> list[dict]:
        return [{"layer": ln.name, "kind": ln.kind, "klass": ln.klass,
                 "flops_per_sample": f"{ln.flops_per_sample:.4f}",
                 "input_rate": f"{ln.input_rate:.8f}",
                 "ops_per_sample": f"{ln.ops_per_sample:.4f}",
                 "energy_pj": f"{ln.energy_pj:.6f}"} for ln in self.lines]


def _format_pj(pj: float) -> str:
    if pj >= 1e9:
        return f"{pj / 1e9:.4f} mJ"
    if pj >= 1e6:
        return f"{pj / 1e6:.4f} uJ"
    return f"{pj:.2f} pJ"


def estimate_energy(network, record: SpikeRecord,
                    model: EnergyModel | None = None) -> EnergyReport:
    """Apply the MAC/AC energy model to an instrumented record."""
    model = model or EnergyModel()
    lines = []
    for ln in layer_table(network, record):
        if ln.klass == "MAC":
            ops = ln.flops_per_sample
            energy = model.e_mac_pj * ops
        else:
            ops = ln.flops_per_sample * ln.input_rate
            energy = model.e_ac_pj * ops
        lines.append(EnergyLine(**vars(ln), ops_per_sample=ops, energy_pj=energy))
    t = max(record.time_steps, 1)
    spiking = [st for st in record.layers.values() if st.kind in SPIKING_KINDS]
    neurons = sum(st.out_total for st in spiking) / (record.samples * t)
    sps = record.spikes_per_sample()
    return EnergyReport(
        lines=lines, model=model, samples=record.samples,
        time_steps=record.time_steps, spikes_per_sample=sps,
        spikes_per_sample_per_step=sps / t,
        spikes_per_neuron=sps / neurons if neurons else 0.0,
        spikes_per_neuron_per_step=sps / neurons / t if neurons else 0.0)


# ---------------------------------------------------------------------------
# Natural pruning


@dataclass
class FiringRateTrace:
    """Append-only per-epoch map of layer name -> validation firing rate."""

    epochs: list[int] = field(default_factory=list)
    rates: dict[str, list[float]] = field(default_factory=dict)

    def append(self, epoch: int, rate_map: dict[str, float]) -> None:
        if self.epochs and epoch <= self.epochs[-1]:
            raise EngineError(
                f"trace epochs must be strictly increasing: {epoch} after "
                f"{self.epochs[-1]}")
        if self.rates and set(rate_map) != set(self.rates):
            raise EngineError("trace layer set changed between epochs")
        self.epochs.append(epoch)
        for name, rate in rate_map.items():
            self.rates.setdefault(name, []).append(float(rate))

    def series(self, layer: str) -> list[float]:
        if layer not in self.rates:
            raise EngineError(f"unknown layer {layer!r} in firing-rate trace")
        return self.rates[layer]

    def to_rows(self) -> list[dict]:
        rows = []
        for i, epoch in enumerate(self.epochs):
            for name in self.rates:
                rows.append({"epoch": epoch, "layer": name,
                             "rate": f"{self.rates[name][i]:.10g}"})
        return rows

    @classmethod
    def from_rows(cls, rows: list[dict], source="trace rows") -> "FiringRateTrace":
        """The trace of to_rows() rows, such as those of a CSV at `source`.
        A second row for an (epoch, layer) pair is refused."""
        by_epoch: dict[int, dict[str, float]] = {}
        for i, (epoch, layer, rate) in enumerate(zip(
                csv_column(source, rows, "epoch", int), csv_column(source, rows, "layer", str),
                csv_column(source, rows, "rate", float)), start=1):
            if layer in by_epoch.setdefault(epoch, {}):
                raise DataFormatError(f"{source}: row {i} repeats epoch {epoch}, layer {layer!r}")
            by_epoch[epoch][layer] = rate
        trace = cls()
        for epoch in sorted(by_epoch):
            trace.append(epoch, by_epoch[epoch])
        return trace


@dataclass
class PruningFlag:
    layer: str
    first_zero_epoch: int


@dataclass
class PruningReport:
    flagged: list[PruningFlag]
    patience: int
    checked: list[str]

    def names(self) -> list[str]:
        return [f.layer for f in self.flagged]

    def render(self) -> str:
        lines = [f"# natural-pruning detection, patience={self.patience}, "
                 f"checked={len(self.checked)} shortcuts"]
        if not self.flagged:
            lines.append("no shortcut met the exact-zero rule")
        for f in self.flagged:
            lines.append(f"{f.layer}: prunable (rate exactly 0 since epoch "
                         f"{f.first_zero_epoch})")
        return "\n".join(lines)


def detect_natural_pruning(trace: FiringRateTrace, shortcut_names,
                           patience: int = 5) -> PruningReport:
    """Flag shortcuts whose firing rate was exactly zero for the last
    `patience` consecutive epochs. Rates below patience-many epochs of
    history cannot satisfy the rule and are left unflagged."""
    if patience < 1:
        raise EngineError(f"patience must be >= 1, got {patience}")
    flagged = []
    for name in shortcut_names:
        series = trace.series(name)
        if len(series) < patience:
            continue
        if any(v != 0.0 for v in series[-patience:]):
            continue
        idx = len(series)
        while idx > 0 and series[idx - 1] == 0.0:
            idx -= 1
        flagged.append(PruningFlag(layer=name, first_zero_epoch=trace.epochs[idx]))
    return PruningReport(flagged=flagged, patience=patience,
                         checked=list(shortcut_names))


def apply_pruning(network, flagged_names, verify_batches):
    """Verify flagged shortcuts are silent, then return a pruned deep copy.

    Every flagged shortcut's spiking output must be exactly zero on every
    verification batch; any spike refuses the prune and reports the batch
    index, and so does an empty list of batches (a batch of no sample is a
    ShapeError from the forward). The original network is left untouched.
    """
    if isinstance(verify_batches, np.ndarray):
        verify_batches = [verify_batches]
    if network.join_mode not in (JoinMode.OR, JoinMode.ADD):
        raise PruneRefused(
            f"join {network.join_mode.value} does not absorb a silent shortcut")
    flagged = list(flagged_names)
    prunable = {block.shortcut_lif_name for block in network.blocks()}
    for name in flagged:
        if name not in prunable:
            raise EngineError(f"no prunable shortcut named {name!r}")
    verified = 0
    for bi, batch in enumerate(verify_batches):
        rec = instrumented_pass(network, batch)
        verified += rec.samples
        for name in flagged:
            st = rec.layers.get(name)
            if st is None:
                raise EngineError(f"verification produced no record for {name!r}")
            if st.out_spikes != 0:
                raise PruneRefused(
                    f"shortcut {name} fired {st.out_spikes:.0f} spikes on "
                    f"verification batch {bi}; refusing to prune")
    if not verified:
        raise PruneRefused("no verification sample ran; refusing to prune")
    pruned = copy.deepcopy(network)
    for block in pruned.blocks():
        if block.shortcut_lif_name in flagged:
            block.prune()
    return pruned
