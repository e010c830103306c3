"""Generic autograd ops that the engine no longer runs, built on
tensor.make_node, and the composed graphs that the fused nodes replaced.

The tests compare each attention gate's fused node against composed_gate
bit for bit. Its fresh neuron is lif_step, lif_multistep over a [1, ...]
reshape. The ops are gradchecked like the engine's own (test_tensor.py and
test_acceptance.py's test_05).
"""

from __future__ import annotations

import numpy as np

from orsnn import tensor as tz
from orsnn.attention import SpatialAttention
from orsnn.neuron import LIFConfig, lif_multistep
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
        avg = tz.reduce_mean(x, (4,), keepdims=True)
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

    avg = tz.reduce_mean(x, axes)
    mx = reduce_max(x, axes)
    mask, _ = lif_step(tz.add(mlp(avg), mlp(mx)), gate.lif_cfg)
    lead = mask.shape[:2]
    return tz.mul(x, reshape(mask, lead + (1, 1) + (mask.shape[2:] or (1,)))), mask
