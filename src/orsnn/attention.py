"""Synergistic attention gates: binary masks produced by spiking neurons.

Every flavor pools the activation into max and mean descriptors, pushes
them through a shared transform (a conv for S, a two-matrix MLP for T and
C), fires a fresh spiking neuron on the drive (neuron.fire_from_rest) and
multiplies the binary mask on. Each gate is one autograd node. With gmask
= g * x summed over the pooled axes and gdrive = (gmask * sg + 0) / tau,
sg the surrogate slope, its backward replays the op order of the composed
graph it replaced, so both passes are bit-identical to it.

A T or C gate, over (x, W0, W1), pools axis 2 of x viewed as
[T, N, H*W*C, 1] (T: MLP rows [N, T]) or [T, N, H*W, C] (C: rows [T*N, C]).
Rows a (mean) and m (max) give R_b = relu(b W0^T) and the drive
(R_a + R_m) W1^T. For L the pooled length (gmask sums H, W, then C for T):

    b = m, then a:  gR = (gdrive W1) [R_b > 0],  gW1 += gdrive^T R_b,
                    gdesc_b = gR W0,             gW0 += gR^T b
    dx = g * mask,  dx[first argmax] += gdesc_m,  dx += gdesc_a / L

An S gate, over (x, weight), stacks each pixel's channel max m (first
argmax) and mean a as the 2-channel image P = [m, a], and its drive is
corr(pad(P), weight) by tensor.conv2d over a local leaf; mask
[T, N, H, W, 1]. Its backward runs that conv node's backward at gdrive:

    (gP, gweight) = conv2d backward,  dx = g * mask,  dx += gP_a / C,
    then dx += gP_m at each first argmax (a dense add)

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
from .neuron import LIFConfig, fire_from_rest
from .tensor import Tensor, _give_grad, _unbroadcast, accumulate_grad, make_node

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


class AttentionGate(Module):
    """Common plumbing: every flavor runs through apply, which checks the
    layout, gates x by the flavor's _gate and records the pooling and the
    mask's spikes."""

    def __init__(self, name: str, role: str, lif_cfg: LIFConfig):
        super().__init__(name)
        self.role = role
        self.lif_cfg = lif_cfg

    def apply(self, x: Tensor, ctx: ForwardContext) -> tuple[Tensor, np.ndarray]:
        """x multiplied by this gate's binary mask, and the mask: [T, N, 1]
        for T, [T, N, C] for C and [T, N, H, W, 1] for S."""
        if x.ndim != 5:
            raise ShapeError(f"{self.name} expects [T, N, H, W, C], got {x.shape}")
        out, mask = self._gate(x, ctx)
        if ctx.record is not None:
            ctx.record.note_input(f"{self.name}.pool", x.data)
            ctx.record.note_spikes(f"{self.name}.gate", "gate", mask)
        return out, mask

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        return self.apply(x, ctx)[0]


class _PooledGate(AttentionGate):
    """The T and C recipe of the module docstring: a gate over time steps
    (letter "T", descriptor and mask [T, N, 1]) or over channels ("C",
    [T, N, C]). `axis` is where the MLP's features lie, in x and in the
    descriptor: 0 for T, -1 for C."""

    def __init__(self, name: str, role: str, letter: str, extent: int, reduction: int,
                 lif_cfg: LIFConfig, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, role, lif_cfg)
        self.letter, self.axis = letter, (0 if letter == "T" else -1)
        what = f"{'temporal' if letter == 'T' else 'channel'} reduction"
        if extent < 1:
            raise BuildError(f"{name}: {letter} must be >= 1, got {extent}")
        if reduction < 1:
            raise BuildError(f"{name}: {what} must be >= 1, got {reduction}")
        if reduction < extent and extent % reduction != 0:
            raise BuildError(f"{name}: {what} {reduction} must divide {extent}")
        hidden = max(1, extent // reduction)
        self.extent = extent
        self.w0 = he_uniform(rng, (hidden, extent), extent, dtype)
        self.w1 = he_uniform(rng, (extent, hidden), hidden, dtype)

    def named_params(self):
        return [(f"{self.name}.w0", self.w0), (f"{self.name}.w1", self.w1)]

    def _gate(self, x, ctx):
        t, n = x.shape[:2]
        if x.shape[self.axis] != self.extent:
            raise ShapeError(f"{self.name} built for {self.letter}={self.extent}, "
                             f"activation has {self.letter}={x.shape[self.axis]}")
        kept = x.shape[4] if self.axis else 1
        xd = x.data
        view = xd.reshape(t, n, -1, kept)
        w0, w1, axis = self.w0, self.w1, self.axis
        avg = view.mean(axis=2)
        # flat index of each first maximum in view
        first = (np.arange(t * n).reshape(t, n, 1) * view.shape[2] + view.argmax(axis=2)) * kept
        first += np.arange(kept)
        moved = avg.swapaxes(axis, -1).shape

        def rows(desc):
            return np.ascontiguousarray(desc.swapaxes(axis, -1)).reshape(-1, self.extent)

        def unrows(r):
            return r.reshape(moved).swapaxes(-1, axis)

        branches = []  # max first, the order backward takes them in
        for desc in (view.reshape(-1)[first], avg):
            r = rows(desc)
            hid = r @ w0.data.T
            pos = hid > 0
            branches.append((r, pos, hid * pos))
        drive = branches[1][2] @ w1.data.T + branches[0][2] @ w1.data.T
        fired, drive_grad = fire_from_rest(drive, self.lif_cfg)
        mask = unrows(fired)
        mask5 = mask.reshape(t, n, 1, 1, kept)
        if ctx.record is not None:
            ctx.record.note_input(self.name, avg)

        def bwd(g):
            gdrive = drive_grad(rows(_unbroadcast(g * xd, mask5.shape).reshape(mask.shape)))
            gdesc = []
            for r, pos, hid in branches:
                ghid = (gdrive @ w1.data) * pos
                accumulate_grad(w1, gdrive.T @ hid)
                gdesc.append(unrows(ghid @ w0.data))
                accumulate_grad(w0, ghid.T @ r)
            if x.requires_grad:
                dx = g * mask5
                dx.reshape(-1)[first] += gdesc[0]
                dxv = dx.reshape(view.shape)
                dxv += (gdesc[1] / view.shape[2])[:, :, None]
                _give_grad(x, dx)

        return make_node(xd * mask5, (x, w0, w1), bwd), mask


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

    def _gate(self, x, ctx):
        xd = x.data
        rows = xd.reshape(-1, xd.shape[4])
        picked = (np.arange(len(rows)), rows.argmax(axis=1))  # first maxima
        pooled = np.concatenate([rows[picked].reshape(xd.shape[:4] + (1,)),
                                 xd.mean(axis=4, keepdims=True)], axis=4)
        if ctx.record is not None:
            ctx.record.note_input(self.name, pooled)
        # a leaf that needs a gradient when x does, so a frozen x takes
        # conv2d's dW-only backward as the composed graph did
        leaf = Tensor(pooled, requires_grad=x.requires_grad)
        drive = tz.conv2d(leaf, self.weight, stride=1, padding=(self.kernel - 1) // 2)
        mask, drive_grad = fire_from_rest(drive.data, self.lif_cfg)
        conv_bwd = drive.backward_fn

        def bwd(g):
            conv_bwd(drive_grad(_unbroadcast(g * xd, mask.shape)))
            if x.requires_grad:  # in the composed graph's order: mul, mean, max
                _give_grad(x, g * mask)
                accumulate_grad(x, np.broadcast_to(leaf.grad[..., 1:] / rows.shape[1], x.shape))
                routed = np.zeros_like(rows)
                routed[picked] = leaf.grad[..., 0].reshape(-1)
                accumulate_grad(x, routed.reshape(x.shape))

        return make_node(xd * mask, (x, self.weight), bwd), mask


def make_attention(plan: AttentionPlan, role: str, name: str, channels: int,
                   time_steps: int, lif_cfg: LIFConfig, *,
                   rng: np.random.Generator, dtype=np.float32) -> AttentionGate:
    if plan.flavor == "T":
        return _PooledGate(name, role, "T", time_steps, plan.temporal_reduction,
                           lif_cfg, rng=rng, dtype=dtype)
    if plan.flavor == "C":
        return _PooledGate(name, role, "C", channels, plan.channel_reduction,
                           lif_cfg, rng=rng, dtype=dtype)
    return SpatialAttention(name, role, plan.spatial_kernel, lif_cfg,
                            rng=rng, dtype=dtype)
