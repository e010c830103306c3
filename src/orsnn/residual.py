"""Element-wise residual joins, the four block topologies, and the
spike-drivenness auditor.

The bitwise joins are differentiated through their arithmetic forms
(e.g. d/dx of the OR join is 1 - y), which is what training backpropagates
through. A block is two backbone conv stages, a shortcut (projection when
downsampling, identity otherwise), the join, and two post-join conv
stages; topologies differ in where the spiking neurons sit relative to
the join. The auditor classifies every arithmetic layer MAC or AC from
the binarity of its audited input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionGate, AttentionPlan, make_attention
from .errors import AuditError, BuildError, ShapeError
from .layers import (BatchNormLayer, ConvLayer, ForwardContext, LIFLayer, Module)
from .neuron import LIFConfig
from .record import SpikeRecord, binarity, instrumented_pass, layer_class
from .tensor import Tensor


class JoinMode(enum.Enum):
    ADD = "ADD"
    AND = "AND"
    IAND = "IAND"
    OR = "OR"

    @classmethod
    def parse(cls, text: str) -> "JoinMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise BuildError(f"unknown join mode {text!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


class BlockTopology(enum.Enum):
    VANILLA = "vanilla"
    MS = "ms"
    SEW = "sew"
    OR_SEW = "or-sew"


BITWISE_MODES = (JoinMode.AND, JoinMode.IAND, JoinMode.OR)


def join(x: Tensor, y: Tensor, mode: JoinMode, *, strict: bool = False,
         name: str = "join", record: SpikeRecord | None = None) -> Tensor:
    """Combine two residual branches element-wise."""
    if x.shape != y.shape:
        raise ShapeError(f"{name}: join operands differ in shape: {x.shape} vs {y.shape}")
    if mode in BITWISE_MODES and (strict or record is not None):
        for side, op in (("left", x), ("right", y)):
            ok, worst = binarity(op.data)
            if record is not None:
                st = record.stats(name, "join")
                st.binary_input = st.binary_input and ok
                st.max_nonbinary = max(st.max_nonbinary, worst)
            if strict and not ok:
                bad = int(np.count_nonzero((op.data != 0) & (op.data != 1)))
                raise AuditError(
                    f"{name}: {side} operand of {mode.value} join has {bad} "
                    f"non-binary elements (max magnitude {worst:g})")
    if mode is JoinMode.ADD:
        return x + y
    if mode is JoinMode.AND:
        return x * y
    if mode is JoinMode.IAND:
        return (1.0 - x) * y
    return (x + y) - (x * y)


class ResidualBlock(Module):
    """One downsampling (or identity-shortcut) residual unit."""

    def __init__(self, name: str, topology: BlockTopology, in_channels: int,
                 channels: int, stride: int, join_mode: JoinMode,
                 backbone: list[Module], shortcut: list[Module],
                 join_act: Module | None, post: list[Module]):
        super().__init__(name)
        self.topology = topology
        self.in_channels = in_channels
        self.channels = channels
        self.stride = stride
        self.join_mode = join_mode
        self.backbone = backbone
        self.shortcut = shortcut
        self.join_act = join_act
        self.post = post
        self.pruned = False

    def children(self) -> list[Module]:
        kids = list(self.backbone)
        if not self.pruned:
            kids.extend(self.shortcut)
        if self.join_act is not None:
            kids.append(self.join_act)
        kids.extend(self.post)
        return kids

    @property
    def shortcut_lif_name(self) -> str | None:
        for mod in self.shortcut:
            if isinstance(mod, LIFLayer):
                return mod.name
        return None

    def prune(self) -> None:
        if self.join_mode not in (JoinMode.OR, JoinMode.ADD):
            raise BuildError(
                f"{self.name}: join {self.join_mode.value} does not reduce to "
                "identity when the shortcut is silent; refusing to prune")
        self.pruned = True

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        entry_ref = ctx.audit_ref
        y = x
        for mod in self.backbone:
            y = mod.forward(y, ctx)
        if self.pruned:
            out = y
        else:
            backbone_ref = ctx.audit_ref
            ctx.audit_ref = entry_ref
            s = x
            for mod in self.shortcut:
                s = mod.forward(s, ctx)
            ctx.audit_ref = backbone_ref
            out = join(y, s, self.join_mode, strict=ctx.strict,
                       name=f"{self.name}.join", record=ctx.record)
            ctx.audit_ref = out.data
        if self.join_act is not None:
            out = self.join_act.forward(out, ctx)
        for mod in self.post:
            out = mod.forward(out, ctx)
        return out

    def render_layout(self) -> str:
        """Table-style layout string: backbone | shortcut | post-join."""
        def token(mod: Module) -> str:
            if isinstance(mod, ConvLayer):
                pad = f"p{mod.padding}" if mod.padding else ""
                return f"c{mod.out_channels}k{mod.kernel}s{mod.stride}{pad}"
            if isinstance(mod, BatchNormLayer):
                return "BN"
            if isinstance(mod, LIFLayer):
                return "LIF"
            if isinstance(mod, AttentionGate):
                return mod.role
            return mod.__class__.__name__

        backbone = "-".join(token(m) for m in self.backbone)
        if self.pruned:
            shortcut = "pruned"
        elif not self.shortcut:
            shortcut = "identity"
        else:
            shortcut = "-".join(token(m) for m in self.shortcut)
        post_mods = ([self.join_act] if self.join_act is not None else []) + self.post
        post = "-".join(token(m) for m in post_mods)
        return f"{backbone} | {shortcut} | {post}"


def build_block(topology: BlockTopology, in_channels: int, channels: int,
                stride: int, join_mode: JoinMode,
                attention_plan: AttentionPlan | None, lif_cfg: LIFConfig,
                time_steps: int, *, rng: np.random.Generator,
                dtype=np.float32, name: str = "block") -> ResidualBlock:
    if channels <= 0:
        raise BuildError(f"{name}: channels must be positive, got {channels}")
    if attention_plan is not None and topology is not BlockTopology.OR_SEW:
        raise BuildError(
            f"{name}: SynA attention is only defined for the OR-join topology, "
            f"not {topology.value}")
    if topology is BlockTopology.OR_SEW and join_mode is not JoinMode.OR:
        raise BuildError(f"{name}: the OR topology requires the OR join, got "
                         f"{join_mode.value}")
    if topology in (BlockTopology.VANILLA, BlockTopology.MS) and join_mode is not JoinMode.ADD:
        raise BuildError(f"{name}: topology {topology.value} joins by addition only")
    identity_shortcut = stride == 1 and in_channels == channels
    if stride == 1 and in_channels != channels:
        raise BuildError(
            f"{name}: stride-1 block needs matching channels for an identity "
            f"shortcut ({in_channels} vs {channels})")

    def conv(cin: int, k: int, s: int, p: int, label: str) -> ConvLayer:
        return ConvLayer(f"{name}.{label}", cin, channels, k, s, p, rng=rng, dtype=dtype)

    def bn(label: str) -> BatchNormLayer:
        return BatchNormLayer(f"{name}.{label}", channels, dtype=dtype)

    def lif(label: str) -> LIFLayer:
        return LIFLayer(f"{name}.{label}", lif_cfg)

    def gate(label: str, role: str) -> AttentionGate:
        return make_attention(attention_plan, role, f"{name}.{label}", channels,
                              time_steps, lif_cfg, rng=rng, dtype=dtype)

    # The spatial flavor is inhibitory-only: the shortcut receives IA-S and
    # the backbone stages receive no promoting gate.
    place = attention_plan.placement if attention_plan is not None else ""
    promoting = attention_plan is not None and attention_plan.flavor != "S"
    ma_sites = {
        "a": ("backbone1", "post1"),
        "b": ("backbone2", "post2"),
        "c": ("backbone1",),
        "d": ("backbone2",),
    }.get(place, ()) if promoting else ()

    def stage(conv_label: str, bn_label: str, lif_label: str, ma_label: str,
              site: str, cin: int, k: int, s: int, p: int) -> list[Module]:
        mods: list[Module] = [conv(cin, k, s, p, conv_label), bn(bn_label)]
        if site in ma_sites:
            mods.append(gate(ma_label, "MA"))
        mods.append(lif(lif_label))
        return mods

    if topology in (BlockTopology.SEW, BlockTopology.OR_SEW):
        backbone = (stage("conv1", "bn1", "lif1", "ma1", "backbone1",
                          in_channels, 3, stride, 1) +
                    stage("conv2", "bn2", "lif2", "ma2", "backbone2",
                          channels, 3, 1, 1))
        if identity_shortcut:
            shortcut: list[Module] = []
            if attention_plan is not None:
                shortcut.append(gate("ia", "IA"))
        else:
            shortcut = [conv(in_channels, 1, stride, 0, "shortcut_conv"),
                        bn("shortcut_bn")]
            if attention_plan is not None:
                shortcut.append(gate("ia", "IA"))
            shortcut.append(lif("shortcut_lif"))
        join_act = None
    elif topology is BlockTopology.VANILLA:
        backbone = [conv(in_channels, 3, stride, 1, "conv1"), bn("bn1"),
                    lif("lif1"), conv(channels, 3, 1, 1, "conv2"), bn("bn2")]
        shortcut = [] if identity_shortcut else [
            conv(in_channels, 1, stride, 0, "shortcut_conv"), bn("shortcut_bn")]
        join_act = lif("join_lif")
    else:  # MS: pre-activation, real-valued block output
        backbone = [lif("lif0"), conv(in_channels, 3, stride, 1, "conv1"),
                    bn("bn1"), lif("lif1"), conv(channels, 3, 1, 1, "conv2"),
                    bn("bn2")]
        shortcut = [] if identity_shortcut else [
            conv(in_channels, 1, stride, 0, "shortcut_conv"), bn("shortcut_bn")]
        join_act = None

    post = (stage("conv3", "bn3", "lif3", "ma3", "post1", channels, 3, 1, 1) +
            stage("conv4", "bn4", "lif4", "ma4", "post2", channels, 3, 1, 1))
    return ResidualBlock(name, topology, in_channels, channels, stride,
                         join_mode, backbone, shortcut, join_act, post)


# ---------------------------------------------------------------------------
# Spike-drivenness audit


AUDIT_POLICY = (
    "classification: conv/fc layers are AC when every audited input element is "
    "exactly 0 or 1, MAC otherwise; the encoder conv is MAC by definition. "
    "Linear pooling chains (global average pool, time averaging) are "
    "transparent: the classifier head is audited on the spike map entering "
    "them. Attention transforms are MAC by policy, their pooling reductions "
    "AC by policy. Bias adds and BN arithmetic are excluded from op counts."
)


@dataclass
class AuditEntry:
    name: str
    kind: str
    klass: str
    input_rate: float
    binary_input: bool
    max_nonbinary: float
    is_encoder: bool
    flops_per_sample: float


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)
    samples: int = 0
    time_steps: int = 0
    policy: str = AUDIT_POLICY

    @property
    def feature_entries(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.kind in ("conv", "fc")]

    @property
    def violations(self) -> list[AuditEntry]:
        return [e for e in self.feature_entries
                if e.klass == "MAC" and not e.is_encoder]

    @property
    def fully_spike_driven(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        lines = [f"# spike-drivenness audit over {self.samples} samples, "
                 f"T={self.time_steps}",
                 f"# {self.policy}",
                 f"{'layer':32s} {'kind':10s} {'class':5s} {'input_rate':>10s}"]
        for e in self.entries:
            lines.append(f"{e.name:32s} {e.kind:10s} {e.klass:5s} {e.input_rate:10.6f}")
        verdict = "PASS: fully spike-driven outside the encoder" \
            if self.fully_spike_driven else \
            "FAIL: non-binary inputs at " + ", ".join(v.name for v in self.violations)
        lines.append(verdict)
        return "\n".join(lines)

    def rows(self) -> list[dict]:
        return [{"layer": e.name, "kind": e.kind, "klass": e.klass,
                 "input_rate": f"{e.input_rate:.8f}",
                 "binary_input": int(e.binary_input),
                 "max_nonbinary": f"{e.max_nonbinary:.8g}",
                 "is_encoder": int(e.is_encoder)} for e in self.entries]


def audit_spike_drivenness(network, batches, mode: str = "strict") -> AuditReport:
    """Run instrumented forwards and classify every arithmetic layer.

    batches: one [T, N, C, H, W] array or a list of them. mode "strict"
    raises on any non-encoder MAC feature layer; "permissive" only reports.
    """
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown audit mode {mode!r}")
    rec = instrumented_pass(network, batches)
    report = AuditReport(samples=rec.samples, time_steps=rec.time_steps)
    for stat_name in network.arithmetic_stat_names():
        st = rec.layers.get(stat_name)
        if st is None:
            continue
        report.entries.append(AuditEntry(
            name=st.name, kind=st.kind, klass=layer_class(st),
            input_rate=st.input_rate, binary_input=st.binary_input,
            max_nonbinary=st.max_nonbinary, is_encoder=st.is_encoder,
            flops_per_sample=st.total_flops / rec.samples if rec.samples else 0.0))
    if mode == "strict" and not report.fully_spike_driven:
        raise AuditError(report.render_text())
    return report
