"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient accumulator. Every
differentiable op run while gradients are live returns a node that holds
its parents, its backward function and a creation index. backward(root)
collects the nodes reachable from root and runs their backward functions
in descending creation index, so each node's gradient is complete before
it is passed on; gradients accumulate, never overwrite. A tensor's first
gradient is a copy of what its consumer passed (accumulate_grad), except
where the consumer's backward has just allocated that array and drops it:
then the array itself becomes .grad (_give_grad). backward consumes the
graph as it goes: a node that has run drops its gradient, backward
function and parents, so what it and its backward saved is freed before
the nodes below it run. Only leaves keep .grad, and a backward that
reaches a consumed node raises GraphError. No global list holds nodes, so
reference counting frees a graph that is dropped without a backward as
well.

Whether an op records a node is one predicate, recording(): gradients are
live and some parent requires one. An op that records no node keeps
nothing for backward and allocates nothing that only a backward reads:
neuron.lif_multistep builds U in its spike buffer and fires it in place, and
batchnorm2d normalises in its output buffer. Such an op also computes in its
input's buffer when its caller owns that input (overwrites): BN, the
attention gates, LIF and the OR join then allocate no output at all. Only
layers.forward_chain, for the activations it made, and
residual.ResidualBlock._joined, for the join operands, grant ownership, so
an op never writes an array its caller passed in or a second path still
reads. Every such result is bit-identical to the recording path's.

A backward reads only the arrays its own forward captured, plus
parameters' .data: never a parent's .data, which may have been released
by then. release(t) swaps an interior node's .data for a read-only,
zero-stride, NaN-valued stand-in of the same shape and dtype, so the
array is freed unless some backward captured it, gradient bookkeeping
still sees the shape, and a stray read shows as NaN. The forward chains
(layers.forward_chain) release each activation once its consumer's forward
has returned. Conv, BN, the pools and dense take [N, ...] or
[T, N, ...] inputs and fold T into the batch inside their own node.
Images are channels-last, [N, H, W, C] or [T, N, H, W, C], so conv's GEMMs
read and write them without transposing copies and BN works on whole
H*W*C rows; conv kernels stay [Cout, Cin, k, k]. When enough of a conv's
input images hold no nonzero value, its forward correlates only the others
and gives the silent ones an exact +0 output, and its backward runs no dW
GEMM over a chunk of silent images: for finite g that product is all +-0,
which leaves every bit of a sum that starts at +0 (an inf or NaN in g there
would have made it NaN).
One copy of the gradient's taps per chunk feeds both conv gradients.
Every op runs in its inputs' float dtype. Networks are built in
DEFAULT_DTYPE (float32); tests build float64 tensors for finite-difference
comparisons.
"""

from __future__ import annotations

from itertools import count
from math import prod

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import GraphError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32
# batchnorm2d's variance floor and running-statistics momentum (torch's)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_GRAD_ENABLED = True
_NODE_INDEX = count(1)


class no_grad:
    """Context manager that disables recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense array with optional gradient and autograd book-keeping."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "index")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn = None
        self.index = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def recording(*parents: Tensor) -> bool:
    """Whether an op over parents records a node: gradients are live and
    some parent requires one. An op that records none keeps nothing for
    backward."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def overwrites(x: Tensor, owned: bool, dtype, *others: Tensor) -> bool:
    """Whether an op over x (and others) computes its output, of dtype, in
    x's buffer: the caller owns x, so nothing reads x once the op returns;
    the op records no node, so no backward reads it either; and the output
    has x's dtype."""
    return owned and dtype == x.dtype and not recording(x, *others)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Create an op output, made a graph node when recording(*parents).

    A node keeps its parents and backward_fn and takes the next creation
    index, which orders backward: a node is always created after its
    parents. backward_fn receives the output gradient and is responsible
    for accumulating into each parent (use accumulate_grad).
    """
    needs = recording(*parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out.parents = tuple(parents)
        out.backward_fn = backward_fn
        out.index = next(_NODE_INDEX)
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:  # one copy, laid out like t.data and never a view of g
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _give_grad(t: Tensor, g: np.ndarray) -> None:
    """accumulate_grad for a g that the calling backward has just allocated
    and drops: a first gradient laid out like t.data (C-contiguous, when t
    was released) becomes t.grad as it is, with no copy. g must share
    memory with no other array in use."""
    if (t.requires_grad and t.grad is None and g.dtype == t.data.dtype
            and g.shape == t.data.shape
            and (g.strides == t.data.strides
                 or (g.flags.c_contiguous and not any(t.data.strides)))):
        t.grad = g
    else:
        accumulate_grad(t, g)


def release(t: Tensor) -> None:
    """Free an interior node's activation: its .data becomes a read-only,
    zero-stride, NaN-valued stand-in of the same shape and dtype. The
    array itself lives on only where some backward captured it. Leaves,
    inputs and no-grad outputs (index 0) are left as they are."""
    if t.index:
        t.data = np.broadcast_to(np.array(np.nan, dtype=t.data.dtype), t.data.shape)


def _fold(x: Tensor, core: int, who: str) -> np.ndarray:
    """x.data as [B, *its last `core` axes]: an [N, ...] input as it is and
    a [T, N, ...] one with T and N folded into B, a view when x.data is
    contiguous. Ops built on it return [*leading axes, ...] outputs and
    reshape gradients back inside their own node."""
    if x.ndim not in (core + 1, core + 2):
        raise ShapeError(
            f"{who} expects {core + 1}-D [N, ...] or {core + 2}-D [T, N, ...] input, "
            f"got {x.shape}")
    return x.data.reshape((prod(x.shape[:-core]),) + x.shape[-core:])


def backward(root: Tensor, seed=None) -> None:
    """Accumulate d(root)/d(ancestor) into every reachable leaf's .grad,
    consuming the graph.

    Nodes run in descending creation index. Once a node's backward_fn has
    run (or the node never received a gradient), its grad, backward_fn and
    parents are cleared and the walk drops it, so an interior node that no
    caller holds is freed, with its data and the arrays its backward saved,
    before the nodes below it run. Leaves (index 0) keep their .grad.
    Reaching a consumed node, by a second backward over the same graph or
    over a graph that shares nodes with an earlier root's, raises
    GraphError before any gradient moves.
    """
    if seed is None:
        if root.data.size != 1:
            raise GraphError(
                f"backward on non-scalar shape {root.shape} requires an explicit seed")
        seed = np.ones_like(root.data)
    seed = np.asarray(seed, dtype=root.data.dtype)
    if seed.shape != root.data.shape:
        raise ShapeError(f"seed shape {seed.shape} does not match root shape {root.shape}")
    if not root.requires_grad:
        return
    graph: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in graph:
            if node.index and node.backward_fn is None:
                raise GraphError(
                    f"backward reached a node {node.shape} that an earlier backward consumed")
            graph[id(node)] = node
            stack.extend(node.parents)
    order = sorted(graph.values(), key=lambda n: n.index)
    del graph
    accumulate_grad(root, seed)
    while order and order[-1].index:
        node = order.pop()
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad, node.backward_fn, node.parents = None, None, ()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _broadcast_check(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: cannot broadcast {a.shape} with {b.shape}") from None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    out_data = a.data + b.data

    def bwd(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(g, b.shape))

    return make_node(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    out_data = a.data - b.data

    def bwd(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(-g, b.shape))

    return make_node(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    a_data, b_data = a.data, b.data
    out_data = a_data * b_data

    def bwd(g):
        _give_grad(a, _unbroadcast(g * b_data, a.shape))
        _give_grad(b, _unbroadcast(g * a_data, b.shape))

    return make_node(out_data, (a, b), bwd)


# ---------------------------------------------------------------------------
# Linear algebra


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fully-connected layer: y = x @ w.T + b with w of shape [Fout, Fin],
    over x of [N, Fin] or [T, N, Fin]."""
    if w.ndim != 2:
        raise ShapeError(f"dense expects a 2-D weight, got {w.shape}")
    x2 = _fold(x, 1, "dense")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(
            f"dense feature extents differ: input {x.shape} vs weight {w.shape}")
    out_data = x2 @ w.data.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"dense bias shape {b.shape} does not match weight {w.shape}")
        out_data = out_data + b.data

    def bwd(g):
        g2 = g.reshape(out_data.shape)
        _give_grad(x, (g2 @ w.data).reshape(x.shape))
        accumulate_grad(w, g2.T @ x2)
        if b is not None:
            accumulate_grad(b, g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out_data.reshape(x.shape[:-1] + (w.shape[0],)), parents, bwd)


# ---------------------------------------------------------------------------
# Convolution and pooling


# Floats per copied column block: one block and its GEMM output stay in cache.
_CONV_CHUNK = 1 << 15


def _correlate(xp, kh, kw, stride, oh, ow, step):
    """Yield (samples, cols) per chunk of `step` images of the zero-padded
    NHWC input xp: samples slices the batch and cols is the im2col block
    [samples * oh * ow, kh*kw*Cin] of its flat output rows, taps (i, j, c),
    copied from a read-only view whose last axis is the kw*Cin contiguous
    floats of one kernel row (a view, not a copy, for a 1x1 read of
    contiguous rows)."""
    batch, _, _, cin = xp.shape
    sb, sh, sw, sc = xp.strides
    runs = as_strided(xp, (batch, oh, ow, kh, kw * cin),
                      (sb, stride * sh, stride * sw, sh, sc), writeable=False)
    for b0 in range(0, batch, step):
        samples = slice(b0, min(b0 + step, batch))
        yield samples, runs[samples].reshape(-1, kh * kw * cin)


def _live_images(x4, k, stride):
    """The images of the folded [B, H, W, C] input x4 that hold a nonzero
    value, as a boolean mask, when skipping the others pays; None when every
    image is correlated. -0.0 counts as zero and NaN as nonzero.

    The rule reads only the geometry and the silent share. Skipping costs
    this test (one pass over x4), a gather of the live images and a scatter
    of their outputs, and saves the silent images' im2col copies and GEMM
    rows. Measured against the test alone (float32, one BLAS thread, median
    of 11 interleaved runs at 8x8 to 16x16 inputs, 2 to 32 channels), it
    pays from about 15-25% silent images at k3 stride 1, 22-30% at k3
    stride 2 and 65-85% at 1x1 stride 2, where the test alone adds 25-45%
    to the conv (5-10% at k3). Only a 3x3 conv skips, from 20% silent
    images at stride 1 and 30% at stride 2: at k5 the GEMM's row count
    alone changed some outputs' rounding, so a skip was not exact there.
    conv2d's backward reuses the mask to skip the dW GEMM of each chunk of
    silent images: for finite g that product is all +-0, which leaves the
    +0-started sum bit for bit (an inf in g there would give NaN; conv2d).
    """
    if k != 3:
        return None
    live = (x4 != 0).any(axis=(1, 2, 3))
    silent = len(live) - np.count_nonzero(live)
    return live if silent >= (0.2 if stride == 1 else 0.3) * len(live) else None


def _phases(extent: int, k: int, stride: int, padding: int):
    """The polyphase split of one axis of conv dX. For each input offset d
    in [0, s) yield (d, r, taps, m0, m): the m input rows d, d + s, ... are
    padded rows s*(m0 + j) + r, which only kernel rows r, r + s, ... (taps
    of them) read, from gradient rows m0 + j, m0 + j - 1, ..."""
    for d in range(stride):
        m0, r = divmod(d + padding, stride)
        yield d, r, len(range(r, k, stride)), m0, len(range(d, extent, stride))


def out_extent(n: int, k: int, stride: int, padding: int) -> int:
    """Outputs of a k-wide window at stride over n inputs padded both
    sides. A window below 1, a stride below 1, a negative padding or no
    output at all is a ShapeError."""
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"invalid window geometry: k={k} stride={stride} padding={padding}")
    out = (n + 2 * padding - k) // stride + 1
    if out < 1:
        raise ShapeError(f"window {k} at stride {stride}, padding {padding} has no "
                         f"output over an extent of {n}")
    return out


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with square kernel and symmetric zero padding.

    x is channels-last [N, H, W, C] or [T, N, H, W, C]; T and N are folded
    into one batch axis inside the node. w is [Cout, Cin, k, k] and the
    output is [..., H', W', Cout], extent out_extent(H, k, s, p), which
    raises for an extent below 1. Both directions are chunked im2col GEMMs
    (_correlate) that read and write the channels-last arrays in place, over
    the same chunks of images (as many as fit _CONV_CHUNK floats of x's
    im2col, or one):
      forward  y = corr_s(pad_p(x), W), each chunk's GEMM written into y;
      backward polyphase: padded row q = s*m + r receives
               sum_a g[m - a] W[s*a + r] (columns alike), so each of the s^2
               input phases dx[d::s, e::s] is corr_1 of g, zero-padded by
               ceil(k/s) - 1 rows ahead, with the flipped sub-kernel
               W[r::s, c::s], r = (d + p) % s and c = (e + p) % s, and these
               are the only kernel taps the phase's x rows meet. So per
               phase and chunk one copy of g's taps feeds both GEMMs:
               dX = taps sub, and dW[taps] += taps^T x[d::s, e::s] (a view
               at stride 1). No multiply touches a zero inserted between
               gradient rows; stride 1 is the one-phase case, whose dX GEMMs
               write into dx. A phase with an empty sub-kernel (k < s) or no
               input row (H or W < s) runs no GEMM, and input rows the
               forward never reads get exactly 0. When g needs no zero rows
               (a 1x1 kernel, among others) its taps are its own rows. A
               frozen input (the encoder's data) needs dW alone and sums
               cols^T g over x's im2col, Cout/Cin times narrower there than
               g's taps and measured faster.
    A 3x3 forward skips silent images, those that hold no nonzero value (a
    spike map that a T gate or a silent path zeroed), when _live_images
    finds enough of them: it gathers the live images, correlates them in
    chunks of their own and scatters their rows into a zeroed output. That
    is exact. A silent image reads only zeros, so its output is +0; every
    other output pixel is still the one K-long dot product of its row, and
    at k3 the BLAS sums a row alike whatever rows share its GEMM (the tests
    pin this; at k5 it does not). dX reads g and W, not x, so a silent image
    still has a gradient. dW skips its GEMM for each chunk whose images the
    mask marks all silent, over unchanged chunks in unchanged order: with
    finite g the skipped product is all +-0, and the sum, started at +0, is
    never -0 (in round to nearest +0 + -0 and exact cancellation give +0),
    so adding +-0 leaves every bit of it. (Dropping silent rows from the
    live chunks' GEMMs would re-block the sum; a version that did changed
    trained checkpoints' bytes.) An inf or NaN in g at a silent chunk's rows
    gives the dense path NaN; the skip keeps dW finite, as the forward's
    +0 ignores an inf in W.
    Output dtype is result_type(x, w). No input copy is kept, and a
    backward that computes dX makes none: only a frozen input's dW rebuilds
    pad_p(x), which is x itself when p = 0. dX is skipped for a frozen
    input, dW for a frozen kernel.
    """
    if w.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-D kernel, got {w.shape}")
    x4 = _fold(x, 3, "conv2d")
    batch, h, wid, cin = x4.shape
    cout, cin_k, k, kw = w.shape
    if k != kw:
        raise ShapeError(f"conv2d kernel must be square, got {w.shape}")
    if cin != cin_k:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    out_h, out_w = out_extent(h, k, stride, padding), out_extent(wid, k, stride, padding)

    def padded(images):
        if not padding:
            return np.ascontiguousarray(images)
        xp = np.zeros((len(images), h + 2 * padding, wid + 2 * padding, cin),
                      dtype=x.data.dtype)
        xp[:, padding:padding + h, padding:padding + wid] = images
        return xp

    dtype = np.result_type(x.data, w.data)
    wm = w.data.transpose(2, 3, 1, 0).reshape(-1, cout)  # [(i, j, Cin), Cout]
    step = max(1, _CONV_CHUNK // (out_h * out_w * k * k * cin))  # images per chunk

    def correlated(images):
        y = np.empty((len(images), out_h, out_w, cout), dtype=dtype)
        for samples, cols in _correlate(padded(images), k, k, stride, out_h, out_w, step):
            np.matmul(cols, wm, out=y[samples].reshape(-1, cout))
        return y

    live = _live_images(x4, k, stride)
    if live is None:
        out = correlated(x4)
    else:  # silent images read only zeros: their output is exactly +0
        out = np.zeros((batch, out_h, out_w, cout), dtype=dtype)
        out[live] = correlated(x4[live])

    def live_rows(samples):  # False: the forward found these images all silent
        return live is None or live[samples].any()

    def bwd(g):
        g4 = g.reshape(batch, out_h, out_w, cout)
        dw = np.zeros((k, k, cin, cout), dtype=g.dtype) if w.requires_grad else None
        if not x.requires_grad:  # the encoder's input is data: dW alone
            for samples, cols in _correlate(padded(x4), k, k, stride, out_h, out_w, step):
                if live_rows(samples):
                    dw += (cols.T @ g4[samples].reshape(-1, cout)).reshape(dw.shape)
            accumulate_grad(w, dw.transpose(3, 2, 0, 1))
            return
        along_h = list(_phases(h, k, stride, padding))
        along_w = list(_phases(wid, k, stride, padding))
        lo = (k - 1) // stride  # ceil(k/s) - 1 zero rows ahead of g
        ext = [lo + max([n] + [m0 + m for *_, m0, m in axis])
               for n, axis in ((out_h, along_h), (out_w, along_w))]
        gp = g4  # a 1x1 kernel's taps are g's own rows
        if lo or ext != [out_h, out_w]:
            gp = np.zeros((batch, *ext, cout), dtype=g.dtype)
            gp[:, lo:lo + out_h, lo:lo + out_w] = g4
        dx = np.empty((batch, h, wid, cin), dtype=np.result_type(g, w.data))
        for d, r, kr, m0, mh in along_h:
            for e, c, kc, n0, mw in along_w:
                phase = dx[:, d::stride, e::stride]
                if not (kr and kc and mh and mw):  # k < s, or h or w < s
                    phase[...] = 0
                    continue
                sub = w.data[:, :, r::stride, c::stride][:, :, ::-1, ::-1]
                sub = sub.transpose(2, 3, 0, 1).reshape(-1, cin)
                acc = None if dw is None else np.zeros((kr * kc * cout, cin), dtype=g.dtype)
                view = gp[:, m0 + lo - kr + 1:, n0 + lo - kc + 1:]
                for samples, taps in _correlate(view, kr, kc, 1, mh, mw, step):
                    if stride == 1:  # the one phase is dx itself
                        np.matmul(taps, sub, out=dx[samples].reshape(-1, cin))
                    else:
                        phase[samples] = (taps @ sub).reshape(-1, mh, mw, cin)
                    if acc is not None and live_rows(samples):  # this phase's taps of dW
                        acc += taps.T @ x4[samples, d::stride, e::stride].reshape(-1, cin)
                if acc is not None:
                    dw[r::stride, c::stride][::-1, ::-1] = acc.reshape(
                        kr, kc, cout, cin).transpose(0, 1, 3, 2)
        _give_grad(x, dx.reshape(x.shape))
        if dw is not None:
            accumulate_grad(w, dw.transpose(3, 2, 0, 1))

    return make_node(out.reshape(x.shape[:-3] + out.shape[1:]), (x, w), bwd)


def max_pool2d(x: Tensor, window: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over channels-last [N, H, W, C] or [T, N, H, W, C]; ties
    resolve to the first (lowest linear index) element of the window."""
    x4 = _fold(x, 3, "max_pool2d")
    stride = window if stride is None else stride
    batch, h, wid, ch = x4.shape
    out_h, out_w = out_extent(h, window, stride, padding), out_extent(wid, window, stride, padding)
    fill = np.array(-np.inf, dtype=x.data.dtype)
    xp = np.pad(x4, ((0, 0), (padding, padding), (padding, padding), (0, 0)),
                constant_values=fill)
    win = sliding_window_view(xp, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    flat = win.reshape(batch, out_h, out_w, ch, window * window)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        if not x.requires_grad:
            return
        dxp = np.zeros_like(xp)
        wi, wj = arg // window, arg % window
        bi, oi, oj, ci = np.indices(arg.shape, sparse=True)
        np.add.at(dxp, (bi, oi * stride + wi, oj * stride + wj, ci), g.reshape(arg.shape))
        if padding:
            dxp = dxp[:, padding:padding + h, padding:padding + wid]
        _give_grad(x, dxp.reshape(x.shape))

    out_data = np.ascontiguousarray(out_data)
    return make_node(out_data.reshape(x.shape[:-3] + out_data.shape[1:]), (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, H, W, C] -> [N, C] (or [T, N, ...] -> [T, N, C]) spatial mean."""
    x4 = _fold(x, 3, "global_avg_pool")
    batch, h, wid, ch = x4.shape
    out_data = x4.reshape(batch, h * wid, ch).mean(axis=1)

    def bwd(g):
        accumulate_grad(x, np.broadcast_to((g / (h * wid))[..., None, None, :], x.shape))

    return make_node(out_data.reshape(x.shape[:-3] + (ch,)), (x,), bwd)


def _bin_means(n: int, out: int, dtype) -> np.ndarray:
    """[out, n]: row i holds 1/len over floor(i*n/out) .. ceil((i+1)*n/out)."""
    means = np.zeros((out, n), dtype=dtype)
    for i in range(out):
        lo, hi = i * n // out, -(-((i + 1) * n) // out)
        means[i, lo:hi] = 1 / (hi - lo)
    return means


def adaptive_avg_pool2d(x: Tensor, out_size: int) -> Tensor:
    """Average-pool channels-last [N, H, W, C] or [T, N, H, W, C] to a fixed
    [out_size, out_size] spatial extent.

    Bin i covers rows floor(i*H/out) .. ceil((i+1)*H/out), the usual
    adaptive convention, so any input extent is accepted. The [B, H, W*C]
    view is pooled over H, then W, by each axis's bin-mean matrix (x's
    dtype) in one matmul each; backward applies the transposes. Sums of
    x*(1/len) can differ from a windowed sum/len in the last bit.
    """
    x4 = _fold(x, 3, "adaptive_avg_pool2d")
    if out_size < 1:
        raise ShapeError(f"adaptive_avg_pool2d output extent must be >= 1, got {out_size}")
    batch, h, wid, ch = x4.shape
    p_h, p_w = (_bin_means(n, out_size, x.data.dtype) for n in (h, wid))
    rows = np.matmul(p_h, x4.reshape(batch, h, wid * ch))
    out_data = np.matmul(p_w, rows.reshape(batch * out_size, wid, ch))

    def bwd(g):
        g_rows = np.matmul(p_w.T, g.reshape(batch * out_size, out_size, ch))
        dx = np.matmul(p_h.T, g_rows.reshape(batch, out_size, wid * ch))
        _give_grad(x, dx.reshape(x.shape))

    return make_node(out_data.reshape(x.shape[:-3] + (out_size, out_size, ch)), (x,), bwd)


# ---------------------------------------------------------------------------
# Normalization


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, *, owned: bool = False) -> Tensor:
    """Per-channel batch normalization over channels-last [N, H, W, C] or
    [T, N, H, W, C] (statistics pool T, N, H and W).

    x is viewed as B rows of H*W*C floats, and a per-channel vector v acts
    on a row as tile(v, H*W). Every per-channel sum is

        S(a) = (ones(B) @ a).reshape(H*W, C).sum(axis=0)

    one matvec over the batch, then a sum over the H*W positions; m = B*H*W
    is the pooled count. Training mode normalizes with the biased batch
    statistics mean = S(x) / m and var = S((x - mean)^2) / m, and updates
    the running buffers in place by BN_MOMENTUM (unbiased variance, torch
    convention). Backward, with s = gamma / sqrt(var + BN_EPS): dbeta = S(g),
    dgamma = S(g*xhat), and

        dx = s * (g - dbeta/m - xhat * dgamma/m)     (training)
        dx = s * g                                   (eval)

    two sums and one fused pass, all over whole rows. A recording pass
    keeps xhat (one array of x's size) and the per-channel scale for
    backward, never x. A pass that records no node keeps nothing: when the
    output dtype is x's, it builds xhat in the output buffer and scales
    and shifts it there, so the output is its one array of x's size, and
    that buffer is x's own when the caller owns x (owned, see overwrites).
    Training mode adds a transient array of x's size for the squares.
    Mixed dtypes take the recording path's arrays.
    """
    x4 = _fold(x, 3, "batchnorm2d")
    batch, h, wid, ch = x4.shape
    if gamma.shape != (ch,) or beta.shape != (ch,):
        raise ShapeError(
            f"batchnorm2d parameter shapes {gamma.shape}/{beta.shape} do not match C={ch}")
    rows = x4.reshape(batch, -1)
    hw, n = h * wid, batch * h * wid
    ones = np.ones(batch, dtype=rows.dtype)

    def channel_sum(a):
        return (ones @ a).reshape(hw, ch).sum(axis=0)

    dtype = np.result_type(rows, gamma.data, beta.data)
    out = rows if overwrites(x, owned, dtype, gamma, beta) else np.empty(rows.shape, dtype)
    # xhat is built in out when no backward will read it
    xhat = None if recording(x, gamma, beta) or out.dtype != rows.dtype else out
    if training:
        mean = channel_sum(rows) / n
        xhat = np.subtract(rows, np.tile(mean, hw), out=xhat)
        # squares in x's dtype
        sq = out if out.dtype == xhat.dtype and xhat is not out else None
        var = channel_sum(np.multiply(xhat, xhat, out=sq)) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mean = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)
        xhat = np.subtract(rows, np.tile(mean, hw), out=xhat)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= np.tile(inv_std, hw)
    np.multiply(xhat, np.tile(gamma.data, hw), out=out)
    out += np.tile(beta.data, hw)

    shape = rows.shape  # not rows: backward reads xhat, never x

    def bwd(g):
        g2 = g.reshape(shape)
        gx = g2 * xhat
        sum_g, sum_gx = channel_sum(g2), channel_sum(gx)
        accumulate_grad(gamma, sum_gx)
        accumulate_grad(beta, sum_g)
        if not x.requires_grad:
            return
        scale = np.tile(gamma.data * inv_std, hw)
        if training:
            dx = np.subtract(g2, np.tile(sum_g / n, hw))
            dx -= np.multiply(xhat, np.tile(sum_gx / n, hw), out=gx)
            dx *= scale
        else:
            dx = g2 * scale
        _give_grad(x, dx.reshape(x.shape))

    return make_node(out.reshape(x.shape), (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# Reduction


def time_mean(x: Tensor) -> Tensor:
    """The mean over axis 0 of x: a [T, N, K] network output's logits."""
    steps = x.shape[0]

    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g / steps, x.shape))

    return make_node(x.data.mean(axis=0), (x,), bwd)


# ---------------------------------------------------------------------------
# Loss


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Fused for numerical stability; backward is (softmax - onehot) / N.
    """
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N, K] logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ShapeError(f"labels out of range for {k} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(n)
    loss = -logp[rows, labels].mean()
    if not np.isfinite(loss):
        raise NumericError("cross-entropy loss is not finite")
    probs = np.exp(logp)

    def bwd(g):
        d = probs.copy()
        d[rows, labels] -= 1.0
        accumulate_grad(logits, (float(g) / n) * d)

    return make_node(np.asarray(loss, dtype=logits.data.dtype), (logits,), bwd)


def assert_finite(arr: np.ndarray, context: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value in {context}")
