"""Synergistic attention gates: binary masks produced by spiking neurons.

Three flavors share one recipe: pool the activation into a descriptor,
push it through a small shared transform (two reduction matrices, or one
small convolution for the spatial flavor), sum the average-pool and
max-pool branches, and fire a spiking neuron on the summed drive. The
result is a binary mask broadcast-multiplied onto the activation.

A promoting gate on a backbone path and an inhibitory gate on a shortcut
path are distinct parameter instances of the same math; the role only
affects naming and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import BuildError, ShapeError
from .layers import ForwardContext, Module, he_uniform
from .neuron import LIFConfig, LIFState, lif_step
from .tensor import Tensor

FLAVORS = ("T", "C", "S")
PLACEMENTS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class AttentionPlan:
    """Which gate flavor to insert and where inside each residual block.

    Placements pick the backbone stages that receive the promoting gate:
    'a' = first stages (backbone and post-join), 'b' = second stages of
    both, 'c' = backbone first stage only, 'd' = backbone second stage
    only. The shortcut always receives the inhibitory gate when a plan is
    active.
    """

    flavor: str
    placement: str = "b"
    temporal_reduction: int = 4
    channel_reduction: int = 16
    spatial_kernel: int = 7

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise BuildError(f"unknown attention flavor {self.flavor!r}; expected one of {FLAVORS}")
        if self.placement not in PLACEMENTS:
            raise BuildError(
                f"unknown attention placement {self.placement!r}; expected one of {PLACEMENTS}")

    def render(self) -> str:
        return f"{self.flavor}/{self.placement}"

    @classmethod
    def parse(cls, text: str, *, temporal_reduction: int = 4,
              channel_reduction: int = 16, spatial_kernel: int = 7):
        text = text.strip()
        if text.lower() in ("", "none"):
            return None
        flavor, _, placement = text.partition("/")
        return cls(flavor=flavor.upper(), placement=(placement or "b").lower(),
                   temporal_reduction=temporal_reduction,
                   channel_reduction=channel_reduction,
                   spatial_kernel=spatial_kernel)


def _reduced_extent(name: str, what: str, extent: int, reduction: int) -> int:
    """Hidden width extent // reduction, clamped to >= 1; a reduction that
    neither divides the extent nor exceeds it is a config mistake."""
    if reduction < 1:
        raise BuildError(f"{name}: {what} must be >= 1, got {reduction}")
    if reduction < extent and extent % reduction != 0:
        raise BuildError(f"{name}: {what} {reduction} must divide {extent}")
    return max(1, extent // reduction)


def apply_attention(x: Tensor, weights: Tensor) -> Tensor:
    """Broadcast-multiply a gate mask onto an activation.

    The mask's first two axes meet the activation's first two ([T, N]) and
    its remaining axes the activation's last ones, so on channels-last
    [T, N, H, W, C] a [T, N] mask acts per sample and step, a [T, N, C] one
    per channel and a [T, N, H, W, 1] one per pixel. The axes a mask lacks
    are size 1 and replicated; any other extent mismatch raises.
    """
    if weights.ndim > x.ndim:
        raise ShapeError(
            f"attention weights rank {weights.shape} exceeds activation {x.shape}")
    lead, missing = min(2, weights.ndim), x.ndim - weights.ndim
    for axis, wx in enumerate(weights.shape):
        xx = x.shape[axis if axis < lead else axis + missing]
        if wx != xx and wx != 1:
            raise ShapeError(
                f"attention weights {weights.shape} do not broadcast onto {x.shape} "
                f"(weights axis {axis}: {wx} vs {xx})")
    if missing:
        weights = tz.reshape(weights, weights.shape[:lead] + (1,) * missing + weights.shape[lead:])
    return tz.mul(x, weights)


class AttentionGate(Module):
    """Common plumbing: drive -> fresh spiking neuron -> binary mask."""

    def __init__(self, name: str, role: str, lif_cfg: LIFConfig):
        super().__init__(name)
        self.role = role
        self.lif_cfg = lif_cfg

    def weights(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        raise NotImplementedError

    def _fire(self, drive: Tensor, ctx: ForwardContext) -> Tensor:
        mask = lif_step(LIFState(), drive, self.lif_cfg)
        if ctx.record is not None:
            ctx.record.note_spikes(f"{self.name}.gate", "gate", mask.data)
        return mask

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        return apply_attention(x, self.weights(x, ctx))


class TemporalAttention(AttentionGate):
    """Gate over time steps: descriptor [T, N], mask [T, N]."""

    def __init__(self, name: str, role: str, time_steps: int, reduction: int,
                 lif_cfg: LIFConfig, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, role, lif_cfg)
        if time_steps < 1:
            raise BuildError(f"{name}: time_steps must be >= 1, got {time_steps}")
        hidden = _reduced_extent(name, "temporal reduction", time_steps, reduction)
        self.time_steps = time_steps
        self.reduction = reduction
        self.w0 = he_uniform(rng, (hidden, time_steps), time_steps, dtype)
        self.w1 = he_uniform(rng, (time_steps, hidden), hidden, dtype)

    def named_params(self):
        return [(f"{self.name}.w0", self.w0), (f"{self.name}.w1", self.w1)]

    def _mlp(self, descriptor: Tensor) -> Tensor:
        rows = tz.permute(descriptor, (1, 0))
        hid = tz.relu(tz.dense(rows, self.w0))
        return tz.permute(tz.dense(hid, self.w1), (1, 0))

    def weights(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if x.ndim != 5:
            raise ShapeError(f"{self.name} expects [T, N, H, W, C], got {x.shape}")
        if x.shape[0] != self.time_steps:
            raise ShapeError(
                f"{self.name} built for T={self.time_steps}, activation has T={x.shape[0]}")
        avg = tz.reduce_mean(x, (2, 3, 4))
        mx = tz.reduce_max(x, (2, 3, 4))
        drive = self._mlp(avg) + self._mlp(mx)
        if ctx.record is not None:
            t, n = x.shape[0], x.shape[1]
            hidden = self.w0.shape[0]
            ctx.record.note_input(self.name, "attn_fc", avg.data, avg.data,
                                  flops=4 * n * t * hidden)
            ctx.record.note_input(f"{self.name}.pool", "attn_pool", x.data, x.data,
                                  flops=2 * x.size)
        return self._fire(drive, ctx)


class ChannelAttention(AttentionGate):
    """Gate over channels: descriptor [T, N, C], mask [T, N, C]."""

    def __init__(self, name: str, role: str, channels: int, reduction: int,
                 lif_cfg: LIFConfig, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, role, lif_cfg)
        hidden = _reduced_extent(name, "channel reduction", channels, reduction)
        self.channels = channels
        self.reduction = reduction
        self.w0 = he_uniform(rng, (hidden, channels), channels, dtype)
        self.w1 = he_uniform(rng, (channels, hidden), hidden, dtype)

    def named_params(self):
        return [(f"{self.name}.w0", self.w0), (f"{self.name}.w1", self.w1)]

    def _mlp(self, descriptor: Tensor) -> Tensor:
        return tz.dense(tz.relu(tz.dense(descriptor, self.w0)), self.w1)

    def weights(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if x.ndim != 5:
            raise ShapeError(f"{self.name} expects [T, N, H, W, C], got {x.shape}")
        if x.shape[4] != self.channels:
            raise ShapeError(
                f"{self.name} built for C={self.channels}, activation has C={x.shape[4]}")
        avg = tz.reduce_mean(x, (2, 3))
        mx = tz.reduce_max(x, (2, 3))
        drive = self._mlp(avg) + self._mlp(mx)
        if ctx.record is not None:
            t, n = x.shape[0], x.shape[1]
            hidden = self.w0.shape[0]
            ctx.record.note_input(self.name, "attn_fc", avg.data, avg.data,
                                  flops=4 * t * n * self.channels * hidden)
            ctx.record.note_input(f"{self.name}.pool", "attn_pool", x.data, x.data,
                                  flops=2 * x.size)
        return self._fire(drive, ctx)


class SpatialAttention(AttentionGate):
    """Gate over pixels: channel-max and channel-mean maps stacked into a
    2-channel image, one small odd-kernel convolution, mask [T, N, H, W, 1]."""

    def __init__(self, name: str, role: str, kernel: int, lif_cfg: LIFConfig, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, role, lif_cfg)
        if kernel < 1 or kernel % 2 == 0:
            raise BuildError(f"{name}: spatial kernel must be odd and >= 1, got {kernel}")
        self.kernel = kernel
        self.weight = he_uniform(rng, (1, 2, kernel, kernel), 2 * kernel * kernel, dtype)

    def named_params(self):
        return [(f"{self.name}.weight", self.weight)]

    def weights(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if x.ndim != 5:
            raise ShapeError(f"{self.name} expects [T, N, H, W, C], got {x.shape}")
        mx = tz.reduce_max(x, (4,), keepdims=True)
        avg = tz.reduce_mean(x, (4,), keepdims=True)
        stacked = tz.concat([mx, avg], axis=4)
        drive = tz.conv2d(stacked, self.weight, stride=1, padding=(self.kernel - 1) // 2)
        if ctx.record is not None:
            t, n, h, w, _ = x.shape
            ctx.record.note_input(
                self.name, "attn_conv", stacked.data, stacked.data,
                flops=t * n * h * w * self.kernel * self.kernel * 2)
            ctx.record.note_input(f"{self.name}.pool", "attn_pool", x.data, x.data,
                                  flops=2 * x.size)
        return self._fire(drive, ctx)


def make_attention(plan: AttentionPlan, role: str, name: str, channels: int,
                   time_steps: int, lif_cfg: LIFConfig, *,
                   rng: np.random.Generator, dtype=np.float32) -> AttentionGate:
    if plan.flavor == "T":
        return TemporalAttention(name, role, time_steps, plan.temporal_reduction,
                                 lif_cfg, rng=rng, dtype=dtype)
    if plan.flavor == "C":
        return ChannelAttention(name, role, channels, plan.channel_reduction,
                                lif_cfg, rng=rng, dtype=dtype)
    return SpatialAttention(name, role, plan.spatial_kernel, lif_cfg,
                            rng=rng, dtype=dtype)
