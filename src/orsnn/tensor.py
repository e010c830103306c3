"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient accumulator. Every
differentiable op run while gradients are live returns a node that holds
its parents, its backward function and a creation index. backward(root)
collects the nodes reachable from root and runs their backward functions
in descending creation index, so each node's gradient is complete before
it is passed on; gradients accumulate, never overwrite. No global list
holds nodes, so reference counting frees a graph as soon as the tensors
that reach it are dropped. Training runs in float32 by default; tests
build float64 tensors for finite-difference comparisons.
"""

from __future__ import annotations

from itertools import count

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import GraphError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

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

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "index", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
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
        self.name = name

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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self):
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, name=self.name)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # Operator sugar. Scalars become constant tensors of the partner dtype.
    def __add__(self, other):
        return add(self, _coerce(other, self))

    def __radd__(self, other):
        return add(_coerce(other, self), self)

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    def __rmul__(self, other):
        return mul(_coerce(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other, self))


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Create an op output, made a graph node when grads are live.

    A node keeps its parents and backward_fn and takes the next creation
    index, which orders backward: a node is always created after its
    parents. backward_fn receives the output gradient and is responsible
    for accumulating into each parent (use accumulate_grad).
    """
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
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


def backward(root: Tensor, seed=None) -> None:
    """Accumulate d(root)/d(ancestor) into every reachable tensor's .grad."""
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
            graph[id(node)] = node
            stack.extend(node.parents)
    accumulate_grad(root, seed)
    for node in sorted(graph.values(), key=lambda n: n.index, reverse=True):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


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
    out_data = a.data * b.data

    def bwd(g):
        accumulate_grad(a, _unbroadcast(g * b.data, a.shape))
        accumulate_grad(b, _unbroadcast(g * a.data, b.shape))

    return make_node(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        accumulate_grad(a, -g)

    return make_node(-a.data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        accumulate_grad(a, g * mask)

    return make_node(a.data * mask, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return make_node(out_data, (a, b), bwd)


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fully-connected layer: y = x @ w.T + b with w of shape [Fout, Fin]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"dense expects 2-D input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"dense feature extents differ: input {x.shape} vs weight {w.shape}")
    out_data = x.data @ w.data.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"dense bias shape {b.shape} does not match weight {w.shape}")
        out_data = out_data + b.data

    def bwd(g):
        accumulate_grad(x, g @ w.data)
        accumulate_grad(w, g.T @ x.data)
        if b is not None:
            accumulate_grad(b, g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out_data, parents, bwd)


# ---------------------------------------------------------------------------
# Convolution and pooling


# Floats per copied column block: one block and its GEMM output stay in cache.
_CONV_CHUNK = 1 << 15


def _correlate(xp, k, stride, oh, ow):
    """Yield (rows, cols) per batch chunk of the zero-padded NHWC input xp:
    cols is the im2col block [len(rows), k*k*Cin] of the flat output rows,
    taps (i, j, c), copied from a read-only view whose last axis is the
    k*Cin contiguous floats of one kernel row."""
    batch, _, _, cin = xp.shape
    sb, sh, sw, sc = xp.strides
    runs = as_strided(xp, (batch, oh, ow, k, k * cin),
                      (sb, stride * sh, stride * sw, sh, sc), writeable=False)
    step = max(1, _CONV_CHUNK // (oh * ow * k * k * cin))
    for b0 in range(0, batch, step):
        b1 = min(b0 + step, batch)
        yield slice(b0 * oh * ow, b1 * oh * ow), runs[b0:b1].reshape(-1, k * k * cin)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with square kernel and symmetric zero padding.

    Output extent is floor((H + 2p - k) / s) + 1; an extent below 1 raises.
    NCHW at the boundary, NHWC inside. All three directions are one chunked
    im2col GEMM (_correlate) written by matmul(out=):
      forward  y = corr_s(pad_p(x), W);
      dX       corr_1(pad_(k-1)(dilate_s(g)), flip(W)^T), the transposed conv
               over the padded input's extent, of which rows and columns p to
               p + H - 1 are dx (also for p > k-1). dilate_s puts s-1 zeros
               between gradient rows (and columns), so input rows the forward
               never reads get exactly 0;
      dW       sum over chunks of cols^T g.
    Output dtype is result_type(x, w). No input copy is kept: backward
    rebuilds pad_p(x). dX is skipped for a frozen input, dW for a frozen kernel.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    batch, cin, h, wid = x.shape
    cout, cin_k, k, kw = w.shape
    if k != kw:
        raise ShapeError(f"conv2d kernel must be square, got {w.shape}")
    if cin != cin_k:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"conv2d invalid geometry: k={k} stride={stride} padding={padding}")
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (wid + 2 * padding - k) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv2d output extent below 1 for input {x.shape}, k={k}, "
            f"stride={stride}, padding={padding}")

    def padded():
        xp = np.zeros((batch, h + 2 * padding, wid + 2 * padding, cin), dtype=x.data.dtype)
        xp[:, padding:padding + h, padding:padding + wid] = x.data.transpose(0, 2, 3, 1)
        return xp

    out = np.empty((batch, out_h, out_w, cout), dtype=np.result_type(x.data, w.data))
    wm = w.data.transpose(2, 3, 1, 0).reshape(-1, cout)  # [(i, j, Cin), Cout]
    for rows, cols in _correlate(padded(), k, stride, out_h, out_w):
        np.matmul(cols, wm, out=out.reshape(-1, cout)[rows])

    def bwd(g):
        g4 = g.transpose(0, 2, 3, 1)
        if w.requires_grad:
            g2 = np.ascontiguousarray(g4).reshape(-1, cout)
            dw = sum((cols.T @ g2[rows] for rows, cols in
                      _correlate(padded(), k, stride, out_h, out_w)),
                     np.zeros((k * k * cin, cout), dtype=g.dtype))
            accumulate_grad(w, dw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1))
        if x.requires_grad:  # false for the encoder, whose input is data
            ext = (h + 2 * padding + k - 1, wid + 2 * padding + k - 1)
            gp = np.zeros((batch, *ext, cout), dtype=g.dtype)
            gp[:, k - 1:k - 1 + stride * out_h:stride, k - 1:k - 1 + stride * out_w:stride] = g4
            wf = w.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, cin)
            dx = np.empty((batch, h, wid, cin), dtype=np.result_type(g, w.data))
            for rows, cols in _correlate(gp[:, padding:, padding:], k, 1, h, wid):
                np.matmul(cols, wf, out=dx.reshape(-1, cin)[rows])
            accumulate_grad(x, dx.transpose(0, 3, 1, 2))

    return make_node(np.ascontiguousarray(out.transpose(0, 3, 1, 2)), (x, w), bwd)


def _pool_geometry(h: int, wid: int, window: int, stride: int, padding: int):
    hp, wp = h + 2 * padding, wid + 2 * padding
    if window > hp or window > wp:
        raise ShapeError(
            f"pool window {window} larger than padded input ({hp}x{wp})")
    if window < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"pool invalid geometry: window={window} stride={stride} padding={padding}")
    return (hp - window) // stride + 1, (wp - window) // stride + 1


def max_pool2d(x: Tensor, window: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling; ties resolve to the first (lowest linear index) element."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-D input, got {x.shape}")
    stride = window if stride is None else stride
    batch, ch, h, wid = x.shape
    out_h, out_w = _pool_geometry(h, wid, window, stride, padding)
    fill = np.array(-np.inf, dtype=x.data.dtype)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=fill)
    win = sliding_window_view(xp, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(batch, ch, out_h, out_w, window * window)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        if not x.requires_grad:
            return
        dxp = np.zeros_like(xp)
        wi, wj = arg // window, arg % window
        bi, ci, oi, oj = np.indices(arg.shape, sparse=True)
        np.add.at(dxp, (bi, ci, oi * stride + wi, oj * stride + wj), g)
        if padding:
            dxp = dxp[:, :, padding:padding + h, padding:padding + wid]
        accumulate_grad(x, dxp)

    return make_node(np.ascontiguousarray(out_data), (x,), bwd)


def avg_pool2d(x: Tensor, window: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling; padded zeros count toward the divisor (window^2)."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-D input, got {x.shape}")
    stride = window if stride is None else stride
    batch, ch, h, wid = x.shape
    out_h, out_w = _pool_geometry(h, wid, window, stride, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    out_data = win.mean(axis=(-2, -1))

    def bwd(g):
        if not x.requires_grad:
            return
        dxp = np.zeros_like(xp)
        share = g / float(window * window)
        for i in range(window):
            for j in range(window):
                dxp[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += share
        if padding:
            dxp = dxp[:, :, padding:padding + h, padding:padding + wid]
        accumulate_grad(x, dxp)

    return make_node(np.ascontiguousarray(out_data), (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, C] spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    batch, ch, h, wid = x.shape
    out_data = x.data.mean(axis=(2, 3))

    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g[:, :, None, None] / (h * wid), x.shape))

    return make_node(out_data, (x,), bwd)


def adaptive_avg_pool2d(x: Tensor, out_size: int) -> Tensor:
    """Average-pool to a fixed [out_size, out_size] spatial extent.

    Bin i covers rows floor(i*H/out) .. ceil((i+1)*H/out), the usual
    adaptive convention, so any input extent is accepted.
    """
    if x.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool2d expects 4-D input, got {x.shape}")
    if out_size < 1:
        raise ShapeError(f"adaptive_avg_pool2d output extent must be >= 1, got {out_size}")
    batch, ch, h, wid = x.shape
    if h % out_size == 0 and wid % out_size == 0:
        bh, bw = h // out_size, wid // out_size
        view = x.data.reshape(batch, ch, out_size, bh, out_size, bw)
        out_data = view.mean(axis=(3, 5))

        def bwd_fast(g):
            if not x.requires_grad:
                return
            dx = np.broadcast_to(g[:, :, :, None, :, None] / (bh * bw),
                                 (batch, ch, out_size, bh, out_size, bw))
            accumulate_grad(x, dx.reshape(x.shape))

        return make_node(np.ascontiguousarray(out_data), (x,), bwd_fast)

    bounds_h = [(i * h // out_size, -(-((i + 1) * h) // out_size)) for i in range(out_size)]
    bounds_w = [(j * wid // out_size, -(-((j + 1) * wid) // out_size)) for j in range(out_size)]
    out_data = np.empty((batch, ch, out_size, out_size), dtype=x.data.dtype)
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            out_data[:, :, i, j] = x.data[:, :, h0:h1, w0:w1].mean(axis=(2, 3))

    def bwd(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        for i, (h0, h1) in enumerate(bounds_h):
            for j, (w0, w1) in enumerate(bounds_w):
                dx[:, :, h0:h1, w0:w1] += (g[:, :, i, j] /
                                           ((h1 - h0) * (w1 - w0)))[:, :, None, None]
        accumulate_grad(x, dx)

    return make_node(out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# Normalization


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-channel batch normalization over [B, C, H, W].

    Training mode normalizes with biased batch statistics and updates the
    running buffers in place (unbiased variance, torch convention).
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d expects 4-D input, got {x.shape}")
    ch = x.shape[1]
    if gamma.shape != (ch,) or beta.shape != (ch,):
        raise ShapeError(
            f"batchnorm2d parameter shapes {gamma.shape}/{beta.shape} do not match C={ch}")
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    x3 = x.data.reshape(x.shape[0], ch, -1)  # [B, C, H*W]: per-channel ops broadcast [C, 1]
    out3 = np.empty(x3.shape, np.result_type(x3, gamma.data, beta.data))
    if training:
        mean = x3.mean(axis=(0, 2))
        xhat = np.subtract(x3, mean[:, None])
        sq = out3 if out3.dtype == xhat.dtype else None  # squares in x's dtype, as x.var
        var = np.multiply(xhat, xhat, out=sq).mean(axis=(0, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)
        xhat = np.subtract(x3, mean[:, None])
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    np.multiply(gamma.data[:, None], xhat, out=out3)
    out3 += beta.data[:, None]
    xhat, out_data = xhat.reshape(x.shape), out3.reshape(x.shape)

    def bwd(g):
        accumulate_grad(gamma, (g * xhat).sum(axis=axes))
        accumulate_grad(beta, g.sum(axis=axes))
        if not x.requires_grad:
            return
        gx = g * gamma.data[None, :, None, None]
        if training:
            mean_gx = gx.mean(axis=axes, keepdims=True)
            mean_gx_xhat = (gx * xhat).mean(axis=axes, keepdims=True)
            dx = (gx - mean_gx - xhat * mean_gx_xhat) * inv_std[None, :, None, None]
        else:
            dx = gx * inv_std[None, :, None, None]
        accumulate_grad(x, dx)

    return make_node(out_data, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# Shape and reduction ops


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out_data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}") from None

    def bwd(g):
        accumulate_grad(x, g.reshape(x.shape))

    return make_node(out_data, (x,), bwd)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute axes {axes} invalid for shape {x.shape}")
    inverse = np.argsort(axes)

    def bwd(g):
        accumulate_grad(x, np.ascontiguousarray(g.transpose(inverse)))

    return make_node(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base):
            raise ShapeError(f"concat rank mismatch: {parts[0].shape} vs {p.shape}")
        if other[:axis] + other[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise ShapeError(f"concat extents differ off-axis: {parts[0].shape} vs {p.shape}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g):
        for idx, p in enumerate(parts):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[idx], offsets[idx + 1])
            accumulate_grad(p, g[tuple(sl)])

    return make_node(out_data, tuple(parts), bwd)


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(a % ndim for a in axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return tuple(sorted(axes))


def reduce_mean(x: Tensor, axes, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes]))
    out_data = x.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        if not x.requires_grad:
            return
        gk = g if keepdims else np.expand_dims(g, axes)
        accumulate_grad(x, np.broadcast_to(gk / count, x.shape))

    return make_node(out_data, (x,), bwd)


def reduce_max(x: Tensor, axes, keepdims: bool = False) -> Tensor:
    """Max over axes; gradient routes to the first maximum in row-major order."""
    axes = _norm_axes(axes, x.ndim)
    kept = tuple(a for a in range(x.ndim) if a not in axes)
    perm = kept + axes
    kept_shape = tuple(x.shape[a] for a in kept)
    red = int(np.prod([x.shape[a] for a in axes]))
    flat = x.data.transpose(perm).reshape(-1, red)
    arg = flat.argmax(axis=1)
    rows = np.arange(flat.shape[0])
    out_flat = flat[rows, arg]
    out_data = out_flat.reshape(kept_shape)
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
