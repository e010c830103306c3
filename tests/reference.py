"""Test-only code kept out of the engine, each piece built on
tensor.make_node: generic autograd ops that the engine no longer runs, the
composed graphs that the fused nodes replaced, the per-step LIF graph with
its smooth twin, and a block's layout string.

The tests compare each attention gate's fused node against composed_gate
bit for bit. Its fresh neuron is lif_step, lif_multistep over a [1, ...]
reshape. lif_rollout is the per-step Tensor graph that lif_multistep fuses:
with the step spike, the fused op must match it bit for bit; with the
smooth twin, which replaces the step by the surrogate's primitive in the
forward pass too, whole spiking networks become finite-difference
checkable. The ops are gradchecked like the engine's own (test_tensor.py
and test_acceptance.py's test_05).
"""

from __future__ import annotations

import numpy as np

from orsnn import tensor as tz
from orsnn.attention import AttentionGate, SpatialAttention
from orsnn.errors import ShapeError
from orsnn.layers import BatchNormLayer, ConvLayer, LIFLayer, Module
from orsnn.neuron import LIFConfig, _surrogate_grad, lif_multistep
from orsnn.residual import ResidualBlock
from orsnn.tensor import Tensor, accumulate_grad, make_node


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        accumulate_grad(a, g * mask)

    return make_node(a.data * mask, (a,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g):
        accumulate_grad(x, g.reshape(x.shape))

    return make_node(x.data.reshape(shape), (x,), bwd)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = np.argsort(axes)

    def bwd(g):
        accumulate_grad(x, np.ascontiguousarray(g.transpose(inverse)))

    return make_node(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g):
        for idx, p in enumerate(parts):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[idx], offsets[idx + 1])
            accumulate_grad(p, g[tuple(sl)])

    return make_node(out_data, tuple(parts), bwd)


def reduce_max(x: Tensor, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    """Max over axes; gradient routes to the first maximum in row-major order."""
    axes = tuple(sorted(a % x.ndim for a in axes))
    kept = tuple(a for a in range(x.ndim) if a not in axes)
    perm = kept + axes
    kept_shape = tuple(x.shape[a] for a in kept)
    red = int(np.prod([x.shape[a] for a in axes]))
    flat = x.data.transpose(perm).reshape(-1, red)
    arg = flat.argmax(axis=1)
    rows = np.arange(flat.shape[0])
    out_data = flat[rows, arg].reshape(kept_shape)
    if keepdims:
        out_data = np.expand_dims(out_data, axes)

    def bwd(g):
        if not x.requires_grad:
            return
        gv = g if not keepdims else g.reshape(kept_shape + (1,) * len(axes))
        dflat = np.zeros_like(flat)
        dflat[rows, arg] = gv.reshape(-1)
        full = dflat.reshape(kept_shape + tuple(x.shape[a] for a in axes))
        accumulate_grad(x, np.ascontiguousarray(full.transpose(np.argsort(perm))))

    return make_node(np.ascontiguousarray(out_data), (x,), bwd)


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(a % ndim for a in axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return tuple(sorted(axes))


def reduce_mean(x: Tensor, axes, keepdims: bool = False) -> Tensor:
    """Mean over any axes (negative ones too); tensor.time_mean is its
    axis-0 case, bit for bit."""
    axes = _norm_axes(axes, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes]))
    out_data = x.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        gk = g if keepdims else np.expand_dims(g, axes)
        accumulate_grad(x, np.broadcast_to(gk / count, x.shape))

    return make_node(out_data, (x,), bwd)


def unstack(x: Tensor) -> list[Tensor]:
    """The steps x[0], x[1], ... of axis 0, each a node over x."""
    def take(t):
        def bwd(g):
            full = np.zeros_like(x.data)
            full[t] = g
            accumulate_grad(x, full)

        return make_node(x.data[t], (x,), bwd)

    return [take(t) for t in range(x.shape[0])]


def stack(parts: list[Tensor]) -> Tensor:
    def bwd(g):
        for t, p in enumerate(parts):
            accumulate_grad(p, g[t])

    return make_node(np.stack([p.data for p in parts]), tuple(parts), bwd)


def _spike_node(v: Tensor, alpha: float, smooth: bool) -> Tensor:
    def bwd(g):
        accumulate_grad(v, g * _surrogate_grad(v.data, alpha).astype(g.dtype, copy=False))

    if smooth:
        fired = (np.arctan(np.pi * alpha * v.data / 2.0) / np.pi + 0.5).astype(v.dtype)
    else:
        fired = (v.data >= 0).astype(v.dtype)
    return make_node(fired, (v,), bwd)


def spike_fn(v: Tensor, alpha: float = 2.0) -> Tensor:
    """Heaviside step with step(0) = 1; arc-tangent surrogate backward."""
    return _spike_node(v, alpha, smooth=False)


def smooth_spike_fn(v: Tensor, alpha: float = 2.0) -> Tensor:
    """Surrogate primitive arctan(pi*alpha*v/2)/pi + 1/2 used in both passes."""
    return _spike_node(v, alpha, smooth=True)


def lif_rollout(steps: list[Tensor], cfg: LIFConfig,
                smooth: bool = False) -> tuple[Tensor, Tensor]:
    """The per-step Tensor graph of the LIF recurrence from rest over the
    step currents: the spikes stacked to [T, ...] and the final membrane.
    With smooth, each step fires smooth_spike_fn, the smooth twin."""
    fire = smooth_spike_fn if smooth else spike_fn

    def const(value, like):  # a scalar as a constant tensor of like's dtype
        return Tensor(np.asarray(value, dtype=like.dtype))

    h = Tensor(np.full(steps[0].shape, cfg.u_reset))
    outs = []
    for x_t in steps:
        u = tz.add(h, tz.mul(tz.sub(x_t, tz.sub(h, const(cfg.u_reset, h))),
                             const(1.0 / cfg.tau, x_t)))
        s = fire(tz.sub(u, const(cfg.u_threshold, u)), cfg.surrogate_alpha)
        kept = Tensor(s.data) if cfg.detach_reset else s
        h = tz.mul(u, tz.sub(const(1.0, kept), kept))
        outs.append(s)
    return stack(outs), h


def lif_step(current: Tensor, cfg: LIFConfig) -> tuple[Tensor, np.ndarray]:
    """One LIF step from rest: lif_multistep over current as a [1, ...]
    input. Returns the spikes, shaped as current, and the final membrane."""
    spikes, membrane = lif_multistep(reshape(current, (1,) + current.shape), cfg)
    return reshape(spikes, current.shape), membrane


def composed_gate(gate, x: Tensor) -> tuple[Tensor, Tensor]:
    """A gate's (output, mask) built from generic ops, as the engine built it
    before each flavor became one node; the fused node must match it bit
    for bit.

    S: reduce_max and reduce_mean over channels, concat into a 2-channel
    image, conv2d, a fresh lif_step and a broadcast mul. T and C:
    reduce_mean and reduce_max over the pooled axes, the MLP as dense and
    relu (with permutes to [N, T] rows for T), the branch sum, a fresh
    lif_step, the mask reshaped to [T, N, 1, 1, 1 or C] and a broadcast
    mul."""
    if isinstance(gate, SpatialAttention):
        mx = reduce_max(x, (4,), keepdims=True)
        avg = reduce_mean(x, (4,), keepdims=True)
        stacked = concat([mx, avg], axis=4)
        drive = tz.conv2d(stacked, gate.weight, stride=1, padding=(gate.kernel - 1) // 2)
        mask, _ = lif_step(drive, gate.lif_cfg)
        return tz.mul(x, mask), mask
    temporal = gate.letter == "T"
    axes = (2, 3, 4) if temporal else (2, 3)

    def mlp(desc):
        if temporal:
            rows = permute(desc, (1, 0))
            return permute(tz.dense(relu(tz.dense(rows, gate.w0)), gate.w1), (1, 0))
        return tz.dense(relu(tz.dense(desc, gate.w0)), gate.w1)

    avg = reduce_mean(x, axes)
    mx = reduce_max(x, axes)
    mask, _ = lif_step(tz.add(mlp(avg), mlp(mx)), gate.lif_cfg)
    lead = mask.shape[:2]
    return tz.mul(x, reshape(mask, lead + (1, 1) + (mask.shape[2:] or (1,)))), mask


def render_layout(block: ResidualBlock) -> str:
    """A block's layout as its paper table spells it: backbone | shortcut
    | post-join, each a dash-joined list of layer tokens."""
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

    def tokens(mods: list[Module]) -> str:
        return "-".join(token(m) for m in mods)

    shortcut = "pruned" if block.pruned else tokens(block.shortcut)
    return f"{tokens(block.backbone)} | {shortcut} | {tokens(block.post)}"
