"""Element-wise residual joins, the residual block, and the
spike-drivenness auditor.

The bitwise joins are differentiated through their arithmetic forms,
which is what training backpropagates through. The OR join x + y - x*y is
one autograd node with gx = g - g*y = g(1 - y) and gy = g - g*x, rounded as
its composed add, mul and sub nodes rounded them. A no-grad OR join of
owned operands computes in x's buffer. A block is two backbone
conv stages, a stride-2 projection shortcut that ends in its own spiking
neuron, the join of the two spike maps, and two post-join conv stages. The
join mode (OR, ADD, AND or IAND) is the only thing that varies: OR, AND
and IAND of two spike maps are spikes, ADD is not (Network.layer_ops).
The auditor reports record.layer_table's MAC/AC classification of every
arithmetic layer and fails a non-encoder MAC feature layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .attention import AttentionGate, AttentionPlan, make_attention
from .errors import BuildError, ShapeError
from .layers import (BatchNormLayer, ConvLayer, ForwardContext, LIFLayer, Module,
                     forward_chain)
from .neuron import LIFConfig
from .record import LayerLine, instrumented_pass, layer_table
from .tensor import Tensor, _give_grad, make_node, overwrites


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


BITWISE_MODES = (JoinMode.AND, JoinMode.IAND, JoinMode.OR)


def join(x: Tensor, y: Tensor, mode: JoinMode, *, name: str = "join",
         owned: bool = False) -> Tensor:
    """Combine two residual branches element-wise. owned: the caller hands
    both operands over, so an OR join that records no node computes in x's
    buffer (tensor.overwrites)."""
    if x.shape != y.shape:
        raise ShapeError(f"{name}: join operands differ in shape: {x.shape} vs {y.shape}")
    if mode is JoinMode.ADD:
        return tz.add(x, y)
    if mode is JoinMode.AND:
        return tz.mul(x, y)
    if mode is JoinMode.IAND:
        return tz.mul(tz.sub(Tensor(np.asarray(1.0, dtype=x.dtype)), x), y)
    xd, yd = x.data, y.data
    xy = xd * yd  # OR, as one node: (x + y) - x*y
    out = np.add(xd, yd, out=xd if overwrites(x, owned, np.result_type(xd, yd), y) else None)
    out -= xy

    def bwd(g):
        for operand, other in ((x, yd), (y, xd)):
            gi = g * other
            _give_grad(operand, np.subtract(g, gi, out=gi))

    return make_node(out, (x, y), bwd)


class ResidualBlock(Module):
    """One downsampling residual unit: a stride-2 backbone and a stride-2
    projection shortcut that both end in spikes, their join, then two
    post-join stages."""

    def __init__(self, name: str, in_channels: int, channels: int,
                 join_mode: JoinMode, backbone: list[Module],
                 shortcut: list[Module], post: list[Module]):
        super().__init__(name)
        self.in_channels = in_channels
        self.channels = channels
        self.join_mode = join_mode
        self.backbone = backbone
        self.shortcut = shortcut
        self.post = post
        self.pruned = False

    def children(self) -> list[Module]:
        if self.pruned:
            return self.backbone + self.post
        return self.backbone + self.shortcut + self.post

    @property
    def shortcut_lif_name(self) -> str:
        return self.shortcut[-1].name

    def prune(self) -> None:
        if self.join_mode not in (JoinMode.OR, JoinMode.ADD):
            raise BuildError(
                f"{self.name}: join {self.join_mode.value} does not reduce to "
                "identity when the shortcut is silent; refusing to prune")
        self.pruned = True

    def forward(self, x: Tensor, ctx: ForwardContext, owned: bool = False) -> Tensor:
        # x feeds both paths, so neither owns it. _joined's locals are gone
        # before the post chain runs, so no frame holds the join output past
        # its consumer in a no-grad pass either
        return forward_chain(self._joined(x, ctx), self.post, ctx)

    def _joined(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        """The join of both paths, or the backbone's spikes when pruned. Both
        paths read x, which the caller releases after forward returns. The
        join owns its operands: each path's chain made its own and holds it
        no more."""
        out = forward_chain(x, self.backbone, ctx)
        if self.pruned:
            return out
        s = forward_chain(x, self.shortcut, ctx)
        return join(out, s, self.join_mode, name=f"{self.name}.join", owned=True)


def build_block(in_channels: int, channels: int, join_mode: JoinMode,
                attention_plan: AttentionPlan | None, lif_cfg: LIFConfig,
                time_steps: int, *, rng: np.random.Generator,
                name: str = "block") -> ResidualBlock:
    if channels <= 0:
        raise BuildError(f"{name}: channels must be positive, got {channels}")
    if attention_plan is not None and join_mode is not JoinMode.OR:
        raise BuildError(
            f"{name}: SynA attention requires the OR join, got {join_mode.value}")

    def conv(cin: int, k: int, s: int, p: int, label: str) -> ConvLayer:
        return ConvLayer(f"{name}.{label}", cin, channels, k, s, p, rng=rng)

    def bn(label: str) -> BatchNormLayer:
        return BatchNormLayer(f"{name}.{label}", channels)

    def lif(label: str) -> LIFLayer:
        return LIFLayer(f"{name}.{label}", lif_cfg)

    def gate(label: str, role: str) -> AttentionGate:
        return make_attention(attention_plan, role, f"{name}.{label}", channels,
                              time_steps, lif_cfg, rng=rng)

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

    backbone = (stage("conv1", "bn1", "lif1", "ma1", "backbone1", in_channels, 3, 2, 1) +
                stage("conv2", "bn2", "lif2", "ma2", "backbone2", channels, 3, 1, 1))
    shortcut = [conv(in_channels, 1, 2, 0, "shortcut_conv"), bn("shortcut_bn")]
    if attention_plan is not None:
        shortcut.append(gate("ia", "IA"))
    shortcut.append(lif("shortcut_lif"))
    post = (stage("conv3", "bn3", "lif3", "ma3", "post1", channels, 3, 1, 1) +
            stage("conv4", "bn4", "lif4", "ma4", "post2", channels, 3, 1, 1))
    return ResidualBlock(name, in_channels, channels, join_mode, backbone,
                         shortcut, post)


# ---------------------------------------------------------------------------
# Spike-drivenness audit


AUDIT_POLICY = (
    "classification: conv/fc layers are AC when their input is binary by "
    "construction (spikes, or OR/AND/IAND joins of them), MAC when it is real "
    "(network input, conv, BN, adaptive pool or ADD join), so the encoder is "
    "MAC. Linear pooling chains (global average pool, time averaging) are "
    "transparent: the classifier head takes the type of the map entering "
    "them. Attention transforms are MAC by policy, their pooling reductions "
    "AC by policy. Bias adds and BN arithmetic are excluded from op counts."
)


@dataclass
class AuditReport:
    entries: list[LayerLine]
    samples: int
    time_steps: int
    policy: str = AUDIT_POLICY

    @property
    def feature_entries(self) -> list[LayerLine]:
        return [e for e in self.entries if e.kind in ("conv", "fc")]

    @property
    def violations(self) -> list[LayerLine]:
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
            "FAIL: non-binary inputs at " + ", ".join(
                f"{v.name} ({v.source})" for v in self.violations)
        lines.append(verdict)
        return "\n".join(lines)


def audit_spike_drivenness(network, batches) -> AuditReport:
    """Run instrumented forwards and classify every arithmetic layer.

    batches: one [T, N, C, H, W] array or an iterable of them, holding at
    least one sample (EngineError otherwise). The classes follow from the
    network's construction, and the batches give the input rates. The
    report is returned whatever its verdict: fully_spike_driven reads it.
    """
    rec = instrumented_pass(network, batches)
    return AuditReport(layer_table(network, rec), rec.samples, rec.time_steps)
