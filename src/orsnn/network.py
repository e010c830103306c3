"""Assemble full networks from architecture tokens.

Network.to_input is the one place a dataset batch meets the time axis:
a static [N, C, H, W] batch is viewed T times over and a framed
[N, T, C, H, W] batch is viewed time-major, neither copied. A network
takes that [T, N, C, H, W] view, of any dtype, and makes the one copy at
entry: cast to its dtype in the C-contiguous channels-last
[T, N, H, W, C] layout that every module inside runs on. The modules are
an ordered list ending in a global-average-pool plus classifier head
whose per-step outputs are averaged over time into the logits. The
first convolution is the encoder stage (real-valued input, so MAC
class); the spiking neuron after it performs the actual spike encoding.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .arch import ArchToken, parse_arch, render_arch
from .attention import AttentionGate, AttentionPlan, SpatialAttention, make_attention
from .errors import BuildError, ShapeError
from .layers import (AdaptiveAvgPoolLayer, BatchNormLayer, ConvLayer, DenseLayer,
                     ForwardContext, GlobalAvgPoolLayer, LIFLayer, MaxPoolLayer,
                     Module, forward_chain)
from .neuron import LIFConfig
from .record import LayerOps, SpikeRecord
from .residual import BITWISE_MODES, JoinMode, ResidualBlock, build_block
from .tensor import Tensor


class Network(Module):
    def __init__(self, nodes: list[Module], *, arch_string: str,
                 join_mode: JoinMode, attention: AttentionPlan | None,
                 lif_cfg: LIFConfig, time_steps: int, in_channels: int,
                 class_count: int, seed: int, dtype=np.float32):
        super().__init__("net")
        self.nodes = nodes
        self.arch_string = arch_string
        self.join_mode = join_mode
        self.attention = attention
        self.lif_cfg = lif_cfg
        self.time_steps = time_steps
        self.in_channels = in_channels
        self.class_count = class_count
        self.seed = seed
        self.dtype = dtype

    def children(self) -> list[Module]:
        return list(self.nodes)

    def blocks(self) -> list[ResidualBlock]:
        return [n for n in self.nodes if isinstance(n, ResidualBlock)]

    def pruned_block_names(self) -> list[str]:
        return [b.name for b in self.blocks() if b.pruned]

    def shortcut_lif_names(self) -> list[str]:
        return [b.shortcut_lif_name for b in self.blocks() if not b.pruned]

    def layer_ops(self, h: int, w: int) -> dict[str, LayerOps]:
        """Every op-counted layer for an h x w input, by stat key in
        execution order, from one walk that carries each activation's H, W,
        C and type: None where it is binary by construction, else the source
        of its real values. The network input is real; LIF outputs and gate
        masks are binary, and a gate keeps its input's type. OR, AND and
        IAND of binary operands are binary, ADD is not, and a pruned block
        passes on its backbone's type. Conv, BN and adaptive pooling give
        real values; max pooling (padding below its window) and the global
        average pool keep their input's type. A layer is AC exactly when its
        input is binary, so the encoder (the first conv) and a gate's
        transform (of its pooled descriptor) are MAC; the pool is AC by
        policy. FLOPs per sample, all T steps: a conv's output pixels x k^2 x
        Cin x Cout, fc's weights, 2 per element of a gate's pool, and of its
        transform 2 k^2 per pixel (S) or 4 x hidden per descriptor value (T:
        one per step, C: C per step)."""
        t, ops = self.time_steps, {}

        def count(name: str, kind: str, src: str | None, flops: int) -> None:
            klass = "AC" if src is None or kind == "attn_pool" else "MAC"
            ops[name] = LayerOps(name, kind, klass, t * flops, src, not ops)

        def run(mods: list[Module], src: str | None, shape: tuple[int, int, int]):
            for mod in mods:
                h, w, c = shape
                if isinstance(mod, ResidualBlock):
                    out, shape = run(mod.backbone, src, shape)
                    if not mod.pruned:
                        spikes = (out, run(mod.shortcut, src, (h, w, c))[0]) == (None, None)
                        if not (spikes and mod.join_mode in BITWISE_MODES):
                            out = f"{mod.name} {mod.join_mode.value} join"
                    src, shape = run(mod.post, out, shape)
                elif isinstance(mod, (ConvLayer, MaxPoolLayer)):
                    k, s, p = mod.kernel, mod.stride, mod.padding
                    h, w = tz.out_extent(h, k, s, p), tz.out_extent(w, k, s, p)
                    if isinstance(mod, ConvLayer):
                        count(mod.name, "conv", src, h * w * k * k * c * mod.out_channels)
                        src, c = mod.name, mod.out_channels
                    shape = (h, w, c)
                elif isinstance(mod, DenseLayer):
                    count(mod.name, "fc", src, mod.in_features * mod.out_features)
                    src = mod.name
                elif isinstance(mod, SpatialAttention):  # a transform reads its pool
                    count(mod.name, "attn_conv", f"{mod.name}.pool", 2 * mod.kernel ** 2 * h * w)
                    count(f"{mod.name}.pool", "attn_pool", src, 2 * h * w * c)
                elif isinstance(mod, AttentionGate):
                    per_step = c if mod.letter == "C" else 1  # descriptor values
                    count(mod.name, "attn_fc", f"{mod.name}.pool", 4 * per_step * mod.w0.shape[0])
                    count(f"{mod.name}.pool", "attn_pool", src, 2 * h * w * c)
                elif isinstance(mod, LIFLayer):
                    src = None
                elif isinstance(mod, BatchNormLayer):
                    src = mod.name
                elif isinstance(mod, AdaptiveAvgPoolLayer):
                    src, shape = mod.name, (mod.out_size, mod.out_size, c)
            return src, shape

        run(self.nodes, "network input", (h, w, self.in_channels))
        return ops

    def count_parameters(self) -> int:
        return sum(t.size for _, t in self.named_params())

    def to_input(self, batch) -> np.ndarray:
        """A dataset batch as a [T, N, C, H, W] view at this network's own
        T, in the batch's dtype: a static [N, C, H, W] batch is a read-only
        view that repeats it over T, and a framed [N, T, C, H, W] batch must
        hold T frames per sample."""
        batch = np.asarray(batch)
        if batch.ndim == 4:
            return np.broadcast_to(batch, (self.time_steps, *batch.shape))
        if batch.ndim == 5 and batch.shape[1] != self.time_steps:
            raise ShapeError(f"framed batch has T={batch.shape[1]}, network "
                             f"built for T={self.time_steps}")
        return frames_to_input(batch)

    def forward(self, x, *, record: SpikeRecord | None = None,
                training: bool = False, strict=None) -> Tensor:
        """Logits [N, classes] of a [T, N, C, H, W] input array or view of
        any dtype, recorded into a record of its H x W if given. strict is
        ignored: spike types hold by construction (layer_ops)."""
        x = np.asarray(x)
        if x.ndim != 5 or not x.shape[1]:
            raise ShapeError(f"network input must be [T, N, C, H, W] with N >= 1, "
                             f"got {x.shape}")
        if x.shape[0] != self.time_steps:
            raise ShapeError(
                f"network built for T={self.time_steps}, input has T={x.shape[0]}")
        if x.shape[2] != self.in_channels:
            raise ShapeError(
                f"network built for {self.in_channels} input channels, got {x.shape[2]}")
        ctx = ForwardContext(training=training, record=record)
        if record is not None:
            if record.size and record.size != x.shape[3:]:
                raise ShapeError(f"record holds {record.size} inputs, batch is {x.shape[3:]}")
            record.samples += x.shape[1]
            record.time_steps, record.size = x.shape[0], x.shape[3:]
        # the one copy (cast and channels-last layout), held by the chain alone
        h = forward_chain(Tensor(np.ascontiguousarray(
            x.transpose(0, 1, 3, 4, 2), dtype=self.dtype)), self.nodes, ctx)
        logits = tz.reduce_mean(h, (0,))
        tz.assert_finite(logits.data, "logits")
        return logits


def build_network(arch, join: JoinMode = JoinMode.OR,
                  attention: AttentionPlan | None = None,
                  lif: LIFConfig | None = None, *, time_steps: int,
                  in_channels: int, seed: int = 0,
                  dtype=np.float32) -> Network:
    """Construct a parameterized network from an architecture string.

    Every block joins its backbone and shortcut spikes by `join`;
    attention requires the OR join. Identical seeds produce bit-identical
    parameters.
    """
    tokens = parse_arch(arch) if isinstance(arch, str) else list(arch)
    if lif is None:
        lif = LIFConfig()
    if time_steps < 1:
        raise BuildError(f"time_steps must be >= 1, got {time_steps}")
    if attention is not None and join is not JoinMode.OR:
        raise BuildError(
            f"SynA attention requires the OR join, got {join.value}")
    rng = np.random.default_rng(seed)
    nodes: list[Module] = []
    channels = in_channels
    seen_conv = False
    pooled = False
    head_done = False
    counts = {"conv": 0, "bn": 0, "lif": 0, "maxpool": 0, "adaptive_ap": 0,
              "gate": 0, "block": 0}

    def bump(kind: str) -> int:
        counts[kind] += 1
        return counts[kind]

    for tok in tokens:
        off = f" (token at byte offset {tok.offset})"
        if head_done:
            raise BuildError(f"no tokens may follow the FC head{off}")
        if pooled and tok.kind != "fc":
            raise BuildError(f"only FC may follow AP{off}")
        if tok.kind == "conv":
            out, k, s, p = tok.args
            name = "encoder" if not seen_conv else f"conv{bump('conv')}"
            nodes.append(ConvLayer(name, channels, out, k, s, p, rng=rng, dtype=dtype))
            channels = out
            seen_conv = True
        elif tok.kind == "bn":
            if not seen_conv:
                raise BuildError(f"BN before any convolution{off}")
            nodes.append(BatchNormLayer(f"bn{bump('bn')}", channels, dtype=dtype))
        elif tok.kind == "lif":
            nodes.append(LIFLayer(f"lif{bump('lif')}", lif))
        elif tok.kind == "maxpool":
            k, s, p = tok.args
            if p >= k:  # a window of padding alone would output -inf
                raise BuildError(f"max pool padding {p} must be below its window {k}{off}")
            nodes.append(MaxPoolLayer(f"maxpool{bump('maxpool')}", k, s, p))
        elif tok.kind == "adaptive_ap":
            nodes.append(AdaptiveAvgPoolLayer(
                f"adaptive_ap{bump('adaptive_ap')}", tok.args[0]))
        elif tok.kind == "ap":
            if not seen_conv:
                raise BuildError(f"AP before any convolution{off}")
            nodes.append(GlobalAvgPoolLayer("ap"))
            pooled = True
        elif tok.kind == "fc":
            if not pooled:
                raise BuildError(f"FC requires a preceding AP{off}")
            nodes.append(DenseLayer("fc", channels, tok.args[0], rng=rng, dtype=dtype))
            head_done = True
        elif tok.kind in ("ma", "ia"):
            if attention is None:
                raise BuildError(f"standalone {tok.kind.upper()} token requires "
                                 f"an attention plan{off}")
            if not seen_conv:
                raise BuildError(f"{tok.kind.upper()} before any convolution{off}")
            role = tok.kind.upper()
            nodes.append(make_attention(attention, role, f"gate{bump('gate')}",
                                        channels, time_steps, lif, rng=rng,
                                        dtype=dtype))
        elif tok.kind == "block":
            if not seen_conv:
                raise BuildError(f"residual block before any convolution{off}")
            out = tok.args[0]
            nodes.append(build_block(
                channels, out, join, attention, lif, time_steps,
                rng=rng, dtype=dtype, name=f"block{bump('block')}"))
            channels = out
        else:
            raise BuildError(f"unhandled token kind {tok.kind!r}{off}")
    if not head_done:
        raise BuildError("architecture must end in an FC head")
    rendered = render_arch(tokens)
    return Network(nodes, arch_string=rendered, join_mode=join,
                   attention=attention, lif_cfg=lif, time_steps=time_steps,
                   in_channels=in_channels, class_count=tokens[-1].args[0],
                   seed=seed, dtype=dtype)


def frames_to_input(frames) -> np.ndarray:
    """[N, T, C, H, W] framed events -> [T, N, C, H, W] network input, a
    transposed view of the frames."""
    frames = np.asarray(frames)
    if frames.ndim != 5:
        raise ShapeError(f"framed events must be [N, T, C, H, W], got {frames.shape}")
    return frames.transpose(1, 0, 2, 3, 4)
