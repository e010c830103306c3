"""Shared test helpers: the central-finite-difference gradient oracle,
the LIF oracles (scalar rollout and per-step spike node), a network
forward that releases no activation and the bytes a graph holds, small
seeded input factories, the layout converters between the oracles'
[..., C, H, W] and the engine's channels-last [..., H, W, C], and a file
that fails like a full disk. The generic ops and composed graphs that
fused nodes are compared against live in reference.py.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field

import numpy as np

from orsnn import tensor as tz
from orsnn.layers import ForwardContext
from orsnn.neuron import LIFConfig, _fire, _surrogate_grad
from orsnn.record import LayerOps
from orsnn.residual import ResidualBlock, join
from orsnn.tensor import Tensor, accumulate_grad, backward, make_node, no_grad

from reference import permute


def numeric_gradient(fn, tensors, index: int, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar-valued fn wrt tensors[index].data."""
    flat = tensors[index].data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn(*tensors).data)
            flat[i] = orig - step
            f_minus = float(fn(*tensors).data)
            flat[i] = orig
            grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad.reshape(tensors[index].data.shape)


def gradcheck(fn, *arrays, rel: float = 1e-4, step: float = 1e-5,
              wrt=None) -> None:
    """Assert analytic grads of scalar fn match central differences.

    Inputs are promoted to float64. `wrt` selects which inputs get
    checked (default: all). Tolerance per element:
    |analytic - numeric| <= rel * max(1, |numeric|).
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = fn(*tensors)
    assert out.data.size == 1, "gradcheck objective must be scalar"
    backward(out)
    indices = range(len(tensors)) if wrt is None else wrt
    for idx in indices:
        t = tensors[idx]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(fn, tensors, idx, step=step)
        scale = np.maximum(1.0, np.abs(numeric))
        worst = np.max(np.abs(analytic - numeric) / scale)
        assert worst <= rel, (
            f"input {idx}: worst relative gradient error {worst:.3e} > {rel:.0e}\n"
            f"analytic:\n{analytic}\nnumeric:\n{numeric}")


class FakeWalk:
    """Stands in for a network's static walk (Network.layer_ops): layers
    is a list of (name, kind, class, FLOPs per sample) in execution order.
    A MAC layer reads a real source, an AC one spikes; the layer named
    encoder is the encoder. sizes lists the (h, w) each walk was asked for."""

    def __init__(self, layers):
        self.layers = layers
        self.sizes = []

    def layer_ops(self, h, w):
        self.sizes.append((h, w))
        return {name: LayerOps(name, kind, klass, flops,
                               "a real source" if klass == "MAC" else None,
                               name == "encoder")
                for name, kind, klass, flops in self.layers}


def rated(total: int, nonzero: int) -> np.ndarray:
    """A float array with an exact nonzero fraction nonzero/total."""
    arr = np.zeros(total, dtype=np.float32)
    arr[:nonzero] = 1.0
    return arr


def nhwc(a) -> np.ndarray:
    """A [..., C, H, W] array as a C-contiguous channels-last [..., H, W, C]."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(a), -3, -1))


def nchw(a) -> np.ndarray:
    """A channels-last [..., H, W, C] array as a C-contiguous [..., C, H, W]."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(a), -1, -3))


def silent_chunks(live: np.ndarray, step: int) -> int:
    """How many of conv2d's chunks of `step` images the live-image mask
    marks all silent: the chunks whose dW GEMM the backward skips."""
    return sum(not live[b0:b0 + step].any() for b0 in range(0, len(live), step))


def margin_random(rng: np.random.Generator, shape, margin: float = 1e-2,
                  scale: float = 1.0) -> np.ndarray:
    """Uniform values in [-scale, scale] pushed away from zero by margin,
    keeping piecewise ops (relu, spikes vs threshold) off their kinks."""
    vals = rng.uniform(-scale, scale, size=shape)
    vals = np.where(np.abs(vals) < margin, np.sign(vals + 1e-12) * margin, vals)
    return vals


def distinct_random(rng: np.random.Generator, shape, min_gap: float = 1e-3
                    ) -> np.ndarray:
    """Random values with all entries pairwise separated (stable argmax)."""
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float64) * (10.0 * min_gap)
    jitter = rng.uniform(0.0, min_gap, size=n)
    vals = base + jitter
    rng.shuffle(vals)
    return vals.reshape(shape)


def _spike_node(v: Tensor, alpha: float, smooth: bool) -> Tensor:
    def bwd(g):
        accumulate_grad(v, g * _surrogate_grad(v.data, alpha).astype(g.dtype, copy=False))

    return make_node(_fire(v.data, alpha, smooth), (v,), bwd)


def spike_fn(v: Tensor, alpha: float = 2.0) -> Tensor:
    """Heaviside step with step(0) = 1; arc-tangent surrogate backward."""
    return _spike_node(v, alpha, smooth=False)


def smooth_spike_fn(v: Tensor, alpha: float = 2.0) -> Tensor:
    """Surrogate primitive arctan(pi*alpha*v/2)/pi + 1/2 used in both passes."""
    return _spike_node(v, alpha, smooth=True)


@dataclass
class LIFTrace:
    """Per-step record of one neuron sequence."""

    potentials: list[float] = field(default_factory=list)
    spikes: list[float] = field(default_factory=list)
    membranes: list[float] = field(default_factory=list)


def lif_reference_trace(currents, cfg: LIFConfig) -> LIFTrace:
    """Scalar pure-python rollout of the LIF recurrence, for cross-checks."""
    trace = LIFTrace()
    h = cfg.u_reset
    for i in currents:
        u = h + (i - (h - cfg.u_reset)) / cfg.tau
        s = 1.0 if u >= cfg.u_threshold else 0.0
        h = u * (1.0 - s)
        trace.potentials.append(u)
        trace.spikes.append(s)
        trace.membranes.append(h)
    return trace


def unreleased_forward(net, x: np.ndarray) -> Tensor:
    """A training Network.forward's logits from the same modules called in
    the same order, block paths included, but with every activation kept:
    the reference the releasing chains must match bit for bit."""
    ctx = ForwardContext(training=True)
    h = permute(Tensor(np.asarray(x, dtype=net.dtype)), (0, 1, 3, 4, 2))
    for node in net.nodes:
        if not isinstance(node, ResidualBlock):
            h = node.forward(h, ctx)
            continue
        out, s = h, h
        for mod in node.backbone:
            out = mod.forward(out, ctx)
        if not node.pruned:
            for mod in node.shortcut:
                s = mod.forward(s, ctx)
            out = join(out, s, node.join_mode, name=f"{node.name}.join")
        for mod in node.post:
            out = mod.forward(out, ctx)
        h = out
    return tz.reduce_mean(h, (0,))


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from root through parents, root included."""
    found, todo = {}, [root]
    while todo:
        t = todo.pop()
        if id(t) not in found:
            found[id(t)] = t
            todo.extend(t.parents)
    return list(found.values())


def node_kind(t: Tensor) -> str:
    """The op that made t, from its backward's name ('conv2d', '_lif',
    'join', ...), or 'leaf'."""
    fn = t.backward_fn
    return fn.__qualname__.split(".<locals>")[0] if fn is not None else "leaf"


def _closure_arrays(obj, seen: set):
    """The ndarrays an object reaches: itself, the items of a list, tuple
    or dict, and a function's closure cells, nested functions included.
    Tensors are not entered; graph_nodes reaches them."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _closure_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _closure_arrays(item, seen)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            try:
                yield from _closure_arrays(cell.cell_contents, seen)
            except ValueError:  # a cell not yet bound
                continue


def graph_held_bytes_by_kind(root: Tensor) -> dict[str, int]:
    """graph_held_bytes split by kind, each base array charged to the
    earliest-made tensor that reaches it: its producer, where a node made it."""
    bases: dict[int, tuple[str, int]] = {}
    seen: set = set()
    for t in sorted(graph_nodes(root), key=lambda t: t.index):
        for arr in (t.data, *_closure_arrays(t.backward_fn, seen)):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            bases.setdefault(id(arr), (node_kind(t), arr.nbytes))
    kinds: dict[str, int] = {}
    for kind, nbytes in bases.values():
        kinds[kind] = kinds.get(kind, 0) + nbytes
    return kinds


def graph_held_bytes(root: Tensor) -> int:
    """Bytes of the unique base arrays a graph keeps alive: the .data of
    every tensor reachable from root and every array its nodes' backward
    closures hold."""
    return sum(graph_held_bytes_by_kind(root).values())


class FullDisk:
    """Stands in for open(): takes half of the first write, then fails as a
    full disk does. Patch it over orsnn.data's open to break a writer."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, chunk):
        self.fh.write(chunk[:len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")
