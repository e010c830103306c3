"""Autograd core: forward fixtures with hand-computed values, gradient
checks against central finite differences, broadcast and graph contracts.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

import orsnn.tensor as tz
from orsnn.errors import GraphError, NumericError, ShapeError
from orsnn.tensor import Tensor, backward, no_grad

import reference
from conftest import distinct_random, gradcheck, margin_random, nchw, nhwc, silent_chunks


def t(data, requires_grad=False, dtype=np.float64):
    return Tensor(np.array(data, dtype=dtype), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def test_add_mul_sub_values():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(tz.add(a, b).data, [[11, 22], [33, 44]])
    assert np.array_equal(tz.sub(b, a).data, [[9, 18], [27, 36]])
    assert np.array_equal(tz.mul(a, b).data, [[10, 40], [90, 160]])


@pytest.mark.parametrize("seed", range(3))
def test_arithmetic_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    gradcheck(lambda x, y: reference.reduce_mean(tz.mul(tz.add(x, y), tz.sub(x, y)), (0, 1)), a, b)


@pytest.mark.parametrize("seed", range(3))
def test_relu_gradient(seed):
    rng = np.random.default_rng(seed)
    a = margin_random(rng, (4, 5))
    gradcheck(lambda x: reference.reduce_mean(reference.relu(x), (0, 1)), a)


def test_broadcast_then_reduce_identity():
    # grad through a broadcast equals the sum of grads over broadcast positions
    a = t([1.0, 2.0, 3.0], requires_grad=True)
    b = t(np.ones((4, 3)), requires_grad=True)
    out = tz.mul(a, b)
    backward(out, seed=np.full((4, 3), 2.0))
    assert np.array_equal(a.grad, np.full(3, 8.0))
    assert np.allclose(b.grad, np.broadcast_to([2.0, 4.0, 6.0], (4, 3)))


def test_incompatible_broadcast_reports_both_shapes():
    a = t(np.ones((2, 3)))
    b = t(np.ones((4, 3)))
    with pytest.raises(ShapeError) as err:
        tz.add(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 3)" in str(err.value)


def test_gradient_accumulates_across_uses():
    a = t([2.0], requires_grad=True)
    out = tz.add(tz.mul(a, a), a)
    backward(out, seed=np.ones(1))
    assert np.array_equal(a.grad, [5.0])


@pytest.mark.parametrize("g", [
    np.arange(6.0, dtype=np.float32).reshape(2, 3),
    np.broadcast_to(np.float32([1.5, -2.0, 3.0]), (2, 3)),
    np.float64([[0.1, 0.2, 0.3]]).repeat(2, axis=0),
    np.arange(6.0, dtype=np.float32).reshape(3, 2).T,
], ids=["same", "broadcast", "float64", "transposed"])
def test_first_gradient_is_one_fresh_copy(g):
    """The first gradient lands as zeros-then-add did: same shape, dtype,
    values and C layout, in an array of its own that the caller's g never
    aliases (later accumulation must not write through to g)."""
    a = t(np.zeros((2, 3)), requires_grad=True, dtype=np.float32)
    tz.accumulate_grad(a, g)
    want = np.zeros((2, 3), dtype=np.float32)
    want += g
    assert a.grad.dtype == want.dtype and a.grad.shape == want.shape
    assert np.array_equal(a.grad, want) and a.grad.flags.c_contiguous
    assert not np.shares_memory(a.grad, g)
    before = np.array(g)
    tz.accumulate_grad(a, np.ones((2, 3), dtype=np.float32))
    assert np.array_equal(g, before) and np.array_equal(a.grad, want + 1)


# ---------------------------------------------------------------------------
# Matmul and dense


@pytest.mark.parametrize("seed", range(3))
def test_matmul_gradient(seed):
    """The one matrix product, dense without a bias, over [T, N, F]."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4))
    gradcheck(lambda x, y: reference.reduce_mean(tz.dense(x, y), (0, 1, 2)), a, b)


def test_dense_identity_and_sum_fixture():
    x = t([[1.0, 2.0, 3.0]])
    w_id = t(np.eye(3))
    b0 = t(np.zeros(3))
    assert np.array_equal(tz.dense(x, w_id, b0).data, [[1, 2, 3]])
    w_ones = t(np.ones((1, 3)))
    assert np.array_equal(tz.dense(x, w_ones, t(np.zeros(1))).data, [[6.0]])


@pytest.mark.parametrize("seed", range(3))
def test_dense_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    gradcheck(lambda a, c, d: reference.reduce_mean(tz.dense(a, c, d), (0, 1)), x, w, b)


def test_dense_shape_errors():
    with pytest.raises(ShapeError):
        tz.dense(t(np.ones((2, 3))), t(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        tz.dense(t(np.ones((2, 3))), t(np.ones((4, 3))), t(np.ones(5)))


# ---------------------------------------------------------------------------
# Convolution (channels-last ops; the loop oracle stays [N, C, H, W])


def test_conv_identity_kernel():
    x = t(nhwc(np.arange(16.0).reshape(1, 1, 4, 4)))
    w = t(np.ones((1, 1, 1, 1)))
    out = tz.conv2d(x, w, stride=1, padding=0)
    assert np.array_equal(out.data, x.data)


def test_conv_all_ones_sums_to_nine():
    x = t(nhwc(np.ones((1, 1, 3, 3))))
    w = t(np.ones((1, 1, 3, 3)))
    out = tz.conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.reshape(()) == 9.0


def test_conv_floor_output_extent_and_error():
    x = t(nhwc(np.ones((1, 1, 28, 28))))
    w = t(np.ones((4, 1, 3, 3)))
    assert tz.conv2d(x, w, stride=2, padding=1).shape == (1, 14, 14, 4)
    small = t(nhwc(np.ones((1, 1, 2, 2))))
    with pytest.raises(ShapeError):
        tz.conv2d(small, t(np.ones((1, 1, 5, 5))))


@pytest.mark.parametrize("seed", range(3))
def test_conv_kernel_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = nhwc(rng.standard_normal((1, 1, 5, 5)))
    w = rng.standard_normal((2, 1, 3, 3))
    gradcheck(lambda a, k: reference.reduce_mean(tz.conv2d(a, k), (0, 1, 2, 3)), x, w)


@pytest.mark.parametrize("stride,padding,k,hw", [
    pytest.param(1, 1, 3, (6, 6), id="1-1"),
    pytest.param(2, 1, 3, (6, 6), id="2-1"),
    pytest.param(2, 0, 3, (6, 6), id="2-0"),
    pytest.param(2, 0, 1, (6, 6), id="shortcut-k1-s2-p0"),
    pytest.param(2, 1, 3, (5, 7), id="nonsquare-5x7"),
    # an extent below the stride leaves a phase with no input row
    pytest.param(2, 1, 3, (1, 5), id="1-row-s2"),
    pytest.param(3, 1, 3, (2, 2), id="2x2-s3"),
])
def test_conv_strided_padded_gradient(stride, padding, k, hw):
    rng = np.random.default_rng(7)
    x = nhwc(rng.standard_normal((2, 3) + hw))
    w = rng.standard_normal((4, 3, k, k))
    gradcheck(lambda a, kern: reference.reduce_mean(tz.conv2d(a, kern, stride, padding),
                                             (0, 1, 2, 3)), x, w)


def conv_reference(x, w, g, stride, padding):
    """Direct nested-loop float64 conv: output and the vector-Jacobian
    products dx, dw for output gradient g. Padding is a bounds check."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    k = w.shape[2]
    out_h = (x.shape[2] + 2 * padding - k) // stride + 1
    out_w = (x.shape[3] + 2 * padding - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], out_h, out_w))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for oh in range(out_h):
        for ow in range(out_w):
            for i in range(k):
                for j in range(k):
                    r, c = oh * stride + i - padding, ow * stride + j - padding
                    if 0 <= r < x.shape[2] and 0 <= c < x.shape[3]:
                        out[:, :, oh, ow] += x[:, :, r, c] @ w[:, :, i, j].T
                        if g is not None:
                            dx[:, :, r, c] += g[:, :, oh, ow] @ w[:, :, i, j]
                            dw[:, :, i, j] += g[:, :, oh, ow].T @ x[:, :, r, c]
    return out, dx, dw


SILENCES = ("some", "all", "negzero", "nan")


def silence(x, kind):
    """A copy of the [N, C, H, W] batch x with images 0, 2, 4, ... made
    silent (+0), or all of them ("all"), or those made -0.0 ("negzero"),
    or "nan": as "some", but image 0 holds NaN in channel 0, so it stays
    active. Returns the copy and the indices of its silent images."""
    x = x.copy()
    if kind == "dense":
        return x, []
    x[::1 if kind == "all" else 2] = -0.0 if kind == "negzero" else 0.0
    silent = list(range(0, len(x), 1 if kind == "all" else 2))
    if kind == "nan":
        x[0, 0] = np.nan
        silent = silent[1:]
    return x, silent


def assert_matches_reference(x, w, stride, padding, silent, rng):
    """conv2d of x against the loop oracle: output, dX and dW, NaNs where
    the oracle has them; silent images give +0 output, no sign bit. A 3x3
    kernel skips exactly the silent images (at least a third of these
    batches, when there are any), and no other kernel skips."""
    live = tz._live_images(x.data, w.shape[2], stride)
    if w.shape[2] != 3:
        assert live is None
    elif silent:
        assert live is not None and np.flatnonzero(~live).tolist() == silent
    out = tz.conv2d(x, w, stride, padding)
    g = rng.standard_normal(nchw(out.data).shape)
    ref, dx, dw = conv_reference(nchw(x.data), w.data, g, stride, padding)
    assert out.shape == nhwc(ref).shape
    np.testing.assert_allclose(out.data, nhwc(ref), rtol=1e-12, atol=1e-12)
    quiet = out.data[silent]
    assert np.all(quiet == 0) and not np.signbit(quiet).any()
    backward(out, seed=nhwc(g))
    np.testing.assert_allclose(x.grad, nhwc(dx), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
    return ref


@pytest.mark.parametrize("k,stride,padding,kind", [
    pytest.param(k, stride, padding, kind,
                 id="-".join([str(padding), str(stride), str(k)]
                             + ([kind] if kind != "dense" else [])))
    for kind in ("dense",) + SILENCES for k in (1, 3, 5) for stride in (1, 2, 3)
    for padding in (0, 1, 2)])
def test_conv_matches_loop_reference(k, stride, padding, kind):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    h, wid = 7, 10
    data, silent = silence(rng.standard_normal((2, 3, h, wid)), kind)
    x = Tensor(nhwc(data), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
    ref = assert_matches_reference(x, w, stride, padding, silent, rng)
    # rows/columns past the last window are never read: their gradient is 0
    # (6 of the 27 cases leave some, e.g. k5 s3 p0 leaves 2 rows, 2 columns)
    read_h = (ref.shape[2] - 1) * stride + k - padding
    read_w = (ref.shape[3] - 1) * stride + k - padding
    assert np.all(x.grad[:, read_h:, :, :] == 0)
    assert np.all(x.grad[:, :, read_w:, :] == 0)


def test_conv_one_sided_gradients_match_reference():
    rng = np.random.default_rng(3)
    xd, wd = rng.standard_normal((2, 3, 5, 6)), rng.standard_normal((4, 3, 3, 3))
    g = rng.standard_normal((2, 4, 3, 3))
    _, dx, dw = conv_reference(xd, wd, g, 2, 1)
    # frozen input (the encoder sees data, not a parameter)
    x, w = Tensor(nhwc(xd)), Tensor(wd, requires_grad=True)
    backward(tz.conv2d(x, w, 2, 1), seed=nhwc(g))
    assert x.grad is None
    np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
    # frozen kernel
    x, w = Tensor(nhwc(xd), requires_grad=True), Tensor(wd)
    backward(tz.conv2d(x, w, 2, 1), seed=nhwc(g))
    assert w.grad is None
    np.testing.assert_allclose(x.grad, nhwc(dx), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("xdt,wdt", [(np.float32, np.float64), (np.float64, np.float32),
                                     (np.float32, np.float32)])
def test_conv_output_dtype_is_result_type(xdt, wdt):
    rng = np.random.default_rng(5)
    x = Tensor(nhwc(rng.standard_normal((2, 3, 6, 5))), dtype=xdt, requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=wdt, requires_grad=True)
    out = tz.conv2d(x, w, 1, 1)
    assert out.dtype == np.result_type(x.data, w.data)
    ref, _, _ = conv_reference(nchw(x.data), w.data, None, 1, 1)
    tol = 1e-12 if out.dtype == np.float64 else 1e-5
    np.testing.assert_allclose(out.data, nhwc(ref), rtol=tol, atol=tol)
    backward(out, seed=np.ones(out.shape))
    assert x.grad.dtype == xdt and w.grad.dtype == wdt


def test_conv_node_retains_only_its_output():
    # the taped node must not keep the padded input (or any input copy)
    # alive until backward: that would grow peak memory by ~1 input per conv.
    # The half-silent input takes the path that skips silent images.
    rng = np.random.default_rng(0)
    data = rng.standard_normal((32, 8, 16, 16))
    for silent in (False, True):
        if silent:
            data[::2] = 0
        x = Tensor(nhwc(data), dtype=np.float32, requires_grad=True)
        w = Tensor(rng.standard_normal((16, 8, 3, 3)), dtype=np.float32, requires_grad=True)
        assert (tz._live_images(x.data, 3, 1) is not None) == silent
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tz.conv2d(x, w, 1, 1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.backward_fn is not None
        assert retained <= 1.1 * out.data.nbytes, (silent, retained, out.data.nbytes)


@pytest.mark.parametrize("xshape,wshape,stride,padding,kind", [
    pytest.param(*case, kind, id=name + ("" if kind == "dense" else "-" + kind))
    for kind in ("dense",) + SILENCES for name, case in [
        # 16*16 positions * 9 taps * 16 channels > _CONV_CHUNK: one sample per chunk
        ("one-sample-per-chunk", ((3, 16, 16, 16), (5, 16, 3, 3), 1, 1)),
        # 70 positions * 27 taps fit 17 samples per chunk: 20 = 17 + a ragged 3
        ("ragged-last-chunk", ((20, 3, 7, 10), (4, 3, 3, 3), 1, 1)),
        # 6x5 positions * 72 taps fit 15 samples: 40 = 15 + 15 + 10, and each
        # of the four phases' dX and dW GEMMs runs over the same three chunks
        ("stride-2-three-chunks", ((40, 8, 11, 9), (16, 8, 3, 3), 2, 1)),
        # Cin 8 > Cout 3: chunks of 6 samples hold 70 * 27 g taps per sample,
        # so the copy that dX and dW share is narrower than x's im2col
        ("cin-above-cout", ((20, 8, 7, 10), (3, 8, 3, 3), 1, 1))]])
def test_conv_chunking_matches_loop_reference(xshape, wshape, stride, padding, kind):
    rng = np.random.default_rng(11)
    data, silent = silence(rng.standard_normal(xshape), kind)
    x = Tensor(nhwc(data), requires_grad=True)
    w = Tensor(rng.standard_normal(wshape), requires_grad=True)
    ref = assert_matches_reference(x, w, stride, padding, silent, rng)
    per_sample = ref.shape[2] * ref.shape[3] * wshape[1] * wshape[2] ** 2
    samples = max(1, tz._CONV_CHUNK // per_sample)
    assert samples == 1 or xshape[0] % samples, "case no longer exercises chunking"


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("active", [1, 20], ids=["one-active-image", "ragged-last-chunk"])
def test_skipping_silent_images_leaves_active_rows_bit_identical(active, dtype, stride):
    """An image's output rows do not depend on which path ran: the same
    images correlated behind 5 other images in an all-active batch (every
    image through the chunked GEMMs) and spread over a mostly silent batch
    (silent images skipped, the active ones gathered into chunks of their
    own) give byte-equal rows, though each sits in a GEMM of another row
    count. At stride 1, 7x10x3 images and a 3x3 kernel fill 17 images per
    chunk, so 20 active images end in a ragged chunk of 3."""
    rng = np.random.default_rng(21)
    images = nhwc(rng.standard_normal((active + 5, 3, 7, 10))).astype(dtype)
    spread = np.zeros((3 * active + 2,) + images.shape[1:], dtype)
    spread[1::3][:active] = images[5:]
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=dtype)
    assert tz._live_images(images, 3, stride) is None
    assert tz._live_images(spread, 3, stride) is not None
    dense = tz.conv2d(Tensor(images), w, stride, 1).data[5:]
    skipped = tz.conv2d(Tensor(spread), w, stride, 1).data
    assert skipped[1::3][:active].tobytes() == dense.tobytes()
    quiet = np.delete(skipped, np.arange(1, 3 * active, 3), axis=0)
    assert not quiet.any() and not np.signbit(quiet).any()


def chunk_silence(batch, step, layout):
    """The indices of the silent images of a batch chunked by `step`:
    every other whole chunk ("whole-chunks"); runs of `step` images that
    start mid-chunk, so no chunk is all silent ("straddling"); the ragged
    last chunk and every other image before it ("ragged-last"); or all."""
    if layout == "whole-chunks":
        return [i for i in range(batch) if i // step % 2 == 0]
    if layout == "straddling":
        return [i for i in range(batch) if (i - step // 2) % (2 * step) < step
                and i >= step // 2]
    if layout == "ragged-last":
        return [i for i in range(batch) if i >= batch - batch % step or i % 2 == 0]
    return list(range(batch))


def conv_grads(data, w, stride, frozen_input):
    """(dX or None, dW) of conv2d(data, w), k3 p1, under a fixed seed g."""
    x = Tensor(data, requires_grad=not frozen_input)
    wt = Tensor(w, requires_grad=True)
    out = tz.conv2d(x, wt, stride, 1)
    g = np.random.default_rng(8).standard_normal(out.shape).astype(data.dtype)
    backward(out, seed=g)
    return x.grad, wt.grad


@pytest.mark.parametrize("frozen_input", [False, True], ids=["phase-loop", "frozen-input"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("layout", ["whole-chunks", "straddling", "ragged-last", "all",
                                    "negzero"])
def test_dw_skip_of_silent_chunks_matches_a_dense_backward_bit_for_bit(
        layout, stride, dtype, frozen_input, monkeypatch):
    """The backward runs no dW GEMM over a chunk whose images the forward
    found all silent, and dX and dW keep every byte of the dense backward's
    (the mask forced to None). 29 images of 12x12x8 make chunks of 3 at
    stride 1 (a ragged 2 last) and of 12 at stride 2 (a ragged 5 last)."""
    rng = np.random.default_rng(31)
    batch = 29
    data = nhwc(rng.standard_normal((batch, 8, 12, 12))).astype(dtype)
    w = rng.standard_normal((4, 8, 3, 3)).astype(dtype)
    step = max(1, tz._CONV_CHUNK // (len(range(0, 12, stride)) ** 2 * 9 * 8))
    assert batch % step, "case no longer ends in a ragged chunk"
    silent = chunk_silence(batch, step, "whole-chunks" if layout == "negzero" else layout)
    data[silent] = -0.0 if layout == "negzero" else 0.0
    live = tz._live_images(data, 3, stride)
    assert live is not None and np.flatnonzero(~live).tolist() == silent
    skipped = silent_chunks(live, step)
    assert (skipped == 0) == (layout == "straddling"), skipped
    dx, dw = conv_grads(data, w, stride, frozen_input)
    monkeypatch.setattr(tz, "_live_images", lambda *args: None)
    dense_dx, dense_dw = conv_grads(data, w, stride, frozen_input)
    assert dw.tobytes() == dense_dw.tobytes()
    assert (dx is None) == frozen_input
    if not frozen_input:
        assert dx.tobytes() == dense_dx.tobytes()
    if layout == "all":
        assert not dw.any() and not np.signbit(dw).any()


@pytest.mark.parametrize("frozen_input", [False, True], ids=["phase-loop", "frozen-input"])
def test_an_inf_gradient_at_a_skipped_chunk_leaves_dw_finite(frozen_input, monkeypatch):
    """The skip's one departure from the dense sum, matching the forward's
    +0 for a silent image whatever W holds: an inf in g at a wholly silent
    chunk's rows meets only zeros, which the dense GEMM turns into NaN in
    dW, while the skipped GEMM leaves dW finite."""
    rng = np.random.default_rng(32)
    data = nhwc(rng.standard_normal((12, 8, 12, 12))).astype(np.float32)
    data[:6] = 0  # chunks of 3: the first two are silent
    w = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
    grads = []
    for mask in (tz._live_images, lambda *args: None):
        monkeypatch.setattr(tz, "_live_images", mask)
        wt = Tensor(w, requires_grad=True)
        out = tz.conv2d(Tensor(data, requires_grad=not frozen_input), wt, 1, 1)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g[1, 5, 5, 2] = np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the dense GEMM, inf - inf in dX
            backward(out, seed=g)
        grads.append(wt.grad)
    skipped, dense = grads
    assert np.isfinite(skipped).all()
    assert np.isnan(dense).any()


@pytest.mark.parametrize("k", [1, 3])
def test_conv_of_an_empty_batch_is_empty(k):
    w = Tensor(np.ones((4, 3, k, k)), requires_grad=True)
    for x in (np.zeros((0, 5, 5, 3)), np.zeros((2, 0, 5, 5, 3))):
        assert tz.conv2d(Tensor(x), w, 1, k // 2).shape == x.shape[:-1] + (4,)


def test_conv_forward_transient_memory():
    # one forward copies the input once (padded) plus one column block per
    # chunk; a whole-batch im2col would peak near 11.6x the output. The
    # half-silent input takes the path that skips silent images.
    rng = np.random.default_rng(0)
    spikes = (rng.random((512, 16, 8, 8)) < 0.2).astype(np.float32)
    for silent in (False, True):
        if silent:
            spikes[::2] = 0
        x = Tensor(nhwc(spikes))
        w = Tensor(rng.standard_normal((16, 16, 3, 3)), dtype=np.float32)
        assert (tz._live_images(x.data, 3, 1) is not None) == silent
        with no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = tz.conv2d(x, w, 1, 1)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak <= 3.5 * out.data.nbytes, (silent, peak, out.data.nbytes)


def test_strided_conv_backward_transient_memory():
    # polyphase dX: g padded by ceil(k/s) - 1 (0.78x the input here) plus dx
    # itself; the dilated gradient [B, H+2p+k-1, W+2p+k-1, Cout] alone is
    # 3.1x the input, and the tap-loop backward it replaced peaked at 5.5x
    rng = np.random.default_rng(0)
    x = Tensor(nhwc((rng.random((256, 8, 16, 16)) < 0.3).astype(np.float32)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 3, 3)), dtype=np.float32)
    out = tz.conv2d(x, w, 2, 1)
    g = rng.standard_normal(out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    assert peak <= 2.5 * x.data.nbytes, (peak, x.data.nbytes)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_a_1x1_conv_gradient_is_one_gemm_at_its_read_phase(stride, padding):
    """For k = 1, dX is g W on the input rows and columns the forward reads,
    from one GEMM, and exactly +0 on the rest, byte for byte in float32."""
    rng = np.random.default_rng(14)
    x = Tensor(nhwc((rng.random((6, 8, 9, 9)) < 0.3).astype(np.float32)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 1, 1)), dtype=np.float32)
    out = tz.conv2d(x, w, stride, padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    backward(out, seed=g)
    d = -padding % stride  # the input offset whose padded rows the kernel reads
    m0, m = (d + padding) // stride, len(range(d, 9, stride))
    expect = np.zeros_like(x.data)
    taps = g[:, m0:m0 + m, m0:m0 + m].reshape(-1, 16)
    expect[:, d::stride, d::stride] = (taps @ w.data[:, :, 0, 0]).reshape(6, m, m, 8)
    assert x.grad.tobytes() == expect.tobytes()


def test_a_strided_1x1_conv_gradient_copies_no_gradient():
    """At a block shortcut's geometry (1x1, stride 2) dX holds dx and one
    phase's GEMM output at its peak: no padded copy of g, no im2col copy."""
    rng = np.random.default_rng(15)
    x = Tensor(nhwc((rng.random((32, 16, 8, 8)) < 0.3).astype(np.float32)), requires_grad=True)
    w = Tensor(rng.standard_normal((32, 16, 1, 1)), dtype=np.float32)
    out = tz.conv2d(x, w, 2, 0)
    g = rng.standard_normal(out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * x.data.nbytes, (peak, x.data.nbytes)


@pytest.mark.parametrize("op,shape", [
    (lambda a, rng: tz.conv2d(a, Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True),
                              2, 1), (2, 3, 7, 6, 3)),
    (lambda a, rng: tz.batchnorm2d(a, Tensor(rng.standard_normal(3) + 2, requires_grad=True),
                                   Tensor(rng.standard_normal(3), requires_grad=True),
                                   np.zeros(3), np.ones(3), training=True), (2, 3, 4, 5, 3)),
    (lambda a, rng: tz.batchnorm2d(a, Tensor(rng.standard_normal(3) + 2, requires_grad=True),
                                   Tensor(rng.standard_normal(3), requires_grad=True),
                                   np.zeros(3), np.ones(3), training=False), (2, 3, 4, 5, 3)),
    (lambda a, rng: tz.max_pool2d(a, 3, 2, 1), (2, 3, 6, 6, 2)),
    (lambda a, rng: tz.adaptive_avg_pool2d(a, 2), (2, 3, 6, 6, 2)),
    (lambda a, rng: tz.adaptive_avg_pool2d(a, 3), (2, 3, 5, 7, 2)),
    (lambda a, rng: tz.global_avg_pool(a), (2, 3, 5, 5, 2)),
    (lambda a, rng: tz.dense(a, Tensor(rng.standard_normal((4, 5)), requires_grad=True),
                             Tensor(rng.standard_normal(4), requires_grad=True)), (2, 3, 5)),
], ids=["conv", "bn-train", "bn-eval", "maxpool", "adaptive", "adaptive-uneven",
        "global", "dense"])
def test_leading_time_axis_is_folded_into_the_batch(op, shape):
    """An op on [T, N, ...] gives, bit for bit, the [T, N] reshape of the op
    on [T*N, ...], with the same gradients for the input and every parameter."""
    data = distinct_random(np.random.default_rng(1), shape)
    runs = []
    for lead in (shape[:2], (shape[0] * shape[1],)):
        x = Tensor(data.reshape(lead + shape[2:]), requires_grad=True)
        out = op(x, np.random.default_rng(2))
        seed = np.random.default_rng(3).standard_normal(out.size).reshape(out.shape)
        backward(out, seed=seed)
        params = [p.grad for p in out.parents[1:]]
        runs.append((out.data.reshape((-1,) + out.shape[len(lead):]),
                     x.grad.reshape(data.shape), params))
    (out5, dx5, dp5), (out4, dx4, dp4) = runs
    assert np.array_equal(out5, out4) and np.array_equal(dx5, dx4)
    assert all(np.array_equal(a, b) for a, b in zip(dp5, dp4))
    with pytest.raises(ShapeError):
        op(Tensor(data[0, 0]), np.random.default_rng(2))


def test_gradients_handed_over_without_copy_share_no_memory(monkeypatch):
    """A join input that feeds BN and a mask multiply, and a tensor used
    twice by one mul, receive gradients from backwards that hand their fresh
    arrays over: every gradient is its own array, with the values that
    copying every gradient gives. backward clears an interior node's .grad
    once the node has run, so each interior gradient is captured as it is
    passed to the node's backward."""
    rng = np.random.default_rng(4)
    a = nhwc(rng.standard_normal((2, 3, 3, 4, 4)))
    b = (rng.random(a.shape) < 0.5).astype(np.float64)
    mask = (rng.random((2, 3, 1, 1, 1)) < 0.5).astype(np.float64)

    def run():
        x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        joined = tz.sub(tz.add(x, y), tz.mul(x, y))
        normed = tz.batchnorm2d(joined, gamma, beta, np.zeros(3), np.ones(3), training=True)
        gated = tz.mul(joined, Tensor(mask))
        out = tz.add(tz.mul(normed, normed), gated)
        handed = {}
        for node in (joined, normed, gated, out):
            def capture(g, node=node, fn=node.backward_fn):
                handed[id(node)] = g
                fn(g)
            node.backward_fn = capture
        backward(out, seed=np.ones(out.shape))
        interior = [handed[id(t)] for t in (joined, normed, gated, out)]
        return [t.grad for t in (x, y, gamma, beta)] + interior

    grads = run()
    assert all(g is not None for g in grads)
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    monkeypatch.setattr(tz, "_give_grad", tz.accumulate_grad)
    reference = run()
    assert all(np.array_equal(g, r) for g, r in zip(grads, reference))


# ---------------------------------------------------------------------------
# Pooling


def test_max_pool_routes_gradient_to_first_argmax():
    x = t(nhwc([[[[1.0, 1.0], [1.0, 1.0]]]]), requires_grad=True)
    out = tz.max_pool2d(x, 2)
    backward(out, seed=np.ones((1, 1, 1, 1)))
    assert np.array_equal(nchw(x.grad), [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_avg_pool_distributes_uniformly():
    x = t(nhwc(np.ones((1, 1, 4, 4))), requires_grad=True)
    out = tz.adaptive_avg_pool2d(x, 2)
    backward(out, seed=nhwc(np.ones((1, 1, 2, 2))))
    assert np.allclose(x.grad, 0.25)


@pytest.mark.parametrize("seed", range(3))
def test_pool_gradients(seed):
    rng = np.random.default_rng(seed)
    x = nhwc(distinct_random(rng, (2, 2, 4, 4)))
    gradcheck(lambda a: reference.reduce_mean(tz.max_pool2d(a, 2), (0, 1, 2, 3)), x)
    gradcheck(lambda a: reference.reduce_mean(tz.adaptive_avg_pool2d(a, 2), (0, 1, 2, 3)), x)
    gradcheck(lambda a: reference.reduce_mean(tz.global_avg_pool(a), (0, 1)), x)
    gradcheck(lambda a: reference.reduce_mean(tz.adaptive_avg_pool2d(a, 3), (0, 1, 2, 3)), x)


def test_adaptive_pool_identity_and_window_match():
    x = np.random.default_rng(0).standard_normal((1, 2, 6, 6))
    same = tz.adaptive_avg_pool2d(t(nhwc(x)), 6)
    assert np.allclose(nchw(same.data), x)
    halved = tz.adaptive_avg_pool2d(t(nhwc(x)), 3)
    assert np.allclose(nchw(halved.data), x.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5)))


def adaptive_pool_loop(x4, g4, out):
    """The per-bin oracle on [B, H, W, C]: output bin (i, j) is the mean of
    rows floor(i*H/out) .. ceil((i+1)*H/out) and the same columns of W, and
    the gradient spreads each bin's g evenly over its window."""
    _, h, wid, _ = x4.shape
    rows = [(i * h // out, -(-((i + 1) * h) // out)) for i in range(out)]
    cols = [(j * wid // out, -(-((j + 1) * wid) // out)) for j in range(out)]
    y = np.empty(x4.shape[:1] + (out, out) + x4.shape[3:], dtype=x4.dtype)
    dx = np.zeros_like(x4)
    for i, (h0, h1) in enumerate(rows):
        for j, (w0, w1) in enumerate(cols):
            y[:, i, j] = x4[:, h0:h1, w0:w1].mean(axis=(1, 2))
            dx[:, h0:h1, w0:w1] += (g4[:, i, j] / ((h1 - h0) * (w1 - w0)))[:, None, None]
    return y, dx


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("shape,out", [
    ((2, 3, 8, 8, 2), 4), ((2, 3, 6, 4, 3), 2), ((2, 3, 16, 16, 2), 8),
    ((2, 3, 5, 5, 2), 3), ((2, 3, 7, 7, 2), 3), ((2, 3, 5, 7, 2), 3),
    ((1, 2, 128, 128, 2), 48), ((2, 3, 3, 3, 2), 5), ((2, 3, 7, 5, 2), 1),
    ((2, 3, 6, 6, 2), 6),
], ids=["8to4", "6x4to2", "16to8", "5to3", "7to3", "5x7to3", "128to48", "3to5",
        "7x5to1", "identity"])
def test_adaptive_pool_matches_the_per_bin_loop(shape, out, dtype, tol):
    """Output and dX agree with the per-bin loop on standard-normal data,
    within a bound that holds 1/len products against sums divided by len."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal(shape[:2] + (out, out, shape[-1])).astype(dtype)
    x = Tensor(data, requires_grad=True)
    y = tz.adaptive_avg_pool2d(x, out)
    backward(y, seed=g)
    fold = lambda a: a.reshape((-1,) + a.shape[2:])
    want_y, want_dx = adaptive_pool_loop(fold(data), fold(g), out)
    assert (y.data.dtype, x.grad.dtype) == (dtype, dtype)
    assert np.abs(fold(y.data) - want_y).max() <= tol
    assert np.abs(fold(x.grad) - want_dx).max() <= tol


@pytest.mark.parametrize("shape,out", [((1, 2, 5, 7, 2), 3), ((2, 1, 3, 3, 1), 5),
                                       ((1, 1, 7, 6, 2), 1)])
def test_adaptive_pool_gradcheck(shape, out):
    x = np.random.default_rng(5).standard_normal(shape)
    gradcheck(lambda a: reference.reduce_mean(tz.mul(tz.adaptive_avg_pool2d(a, out),
                                              tz.adaptive_avg_pool2d(a, out)),
                                       (0, 1, 2, 3, 4)), x)


def test_adaptive_pool_is_one_node_and_leaves_a_frozen_input_alone():
    data = np.random.default_rng(6).standard_normal((2, 3, 9, 9, 2))
    x = Tensor(data, requires_grad=True)
    y = tz.adaptive_avg_pool2d(x, 4)
    assert y.index > 0 and y.parents == (x,)
    frozen = Tensor(data)
    w = Tensor(np.random.default_rng(7).standard_normal((3, 2, 3, 3)), requires_grad=True)
    pooled = tz.adaptive_avg_pool2d(frozen, 4)
    assert pooled.index == 0 and pooled.parents == ()
    backward(reference.reduce_mean(tz.conv2d(pooled, w, 1, 1), (0, 1, 2, 3, 4)))
    assert frozen.grad is None and w.grad is not None


# ---------------------------------------------------------------------------
# Batchnorm


def test_batchnorm_fixed_point():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 4, 4))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    gamma = t(np.ones(3))
    beta = t(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    out = tz.batchnorm2d(t(nhwc(x)), gamma, beta, rm, rv, training=True)
    assert np.allclose(nchw(out.data), x, atol=1e-4)


def test_batchnorm_constant_channel_gives_beta():
    x = t(nhwc(np.full((4, 2, 3, 3), 7.0)))
    beta = t(np.array([1.5, -2.0]))
    out = tz.batchnorm2d(x, t(np.ones(2)), beta, np.zeros(2), np.ones(2),
                         training=True)
    assert np.allclose(nchw(out.data)[:, 0], 1.5, atol=1e-6)
    assert np.allclose(nchw(out.data)[:, 1], -2.0, atol=1e-6)


def test_batchnorm_running_stats_update_and_infer():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    tz.batchnorm2d(t(nhwc(x)), t(np.ones(2)), t(np.zeros(2)), rm, rv, training=True)
    assert tz.BN_MOMENTUM == 0.1
    n = 16 * 9
    expect_rm = 0.1 * x.mean(axis=(0, 2, 3))
    expect_rv = 0.9 + 0.1 * (x.var(axis=(0, 2, 3)) * n / (n - 1))
    assert np.allclose(rm, expect_rm)
    assert np.allclose(rv, expect_rv)
    frozen_rm, frozen_rv = rm.copy(), rv.copy()
    out = tz.batchnorm2d(t(nhwc(x)), t(np.ones(2)), t(np.zeros(2)), rm, rv,
                         training=False)
    assert np.array_equal(rm, frozen_rm) and np.array_equal(rv, frozen_rv)
    expect = (x - rm[None, :, None, None]) / np.sqrt(rv + 1e-5)[None, :, None, None]
    assert np.allclose(nchw(out.data), expect)


@pytest.mark.parametrize("seed,training", [
    *(pytest.param(s, True, id=str(s)) for s in range(3)),
    *(pytest.param(s, False, id=f"eval-{s}") for s in range(3)),
])
def test_batchnorm_gradients(seed, training):
    rng = np.random.default_rng(seed)
    x = nhwc(rng.standard_normal((4, 2, 3, 3)))
    gamma = rng.standard_normal(2) + 2.0
    beta = rng.standard_normal(2)
    # non-uniform weights: the plain mean of BN's output is mean(beta), whose
    # gradient wrt x and gamma is 0 whatever the backward computes
    weights = Tensor(rng.uniform(0.5, 1.5, size=x.shape))
    running_mean, running_var = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)

    def fn(a, g, b):
        y = tz.batchnorm2d(a, g, b, running_mean.copy(), running_var.copy(),
                           training=training)
        return reference.reduce_mean(tz.mul(y, weights), (0, 1, 2, 3))

    gradcheck(fn, x, gamma, beta)


def channel_sums(rows: np.ndarray, positions: int, channels: int) -> np.ndarray:
    """batchnorm2d's documented per-channel sum S(a) of channels-last rows
    [B, H*W*C]: a matvec over the batch, then a sum over the H*W positions."""
    return (np.ones(len(rows), rows.dtype) @ rows).reshape(positions, channels).sum(axis=0)


@pytest.mark.parametrize("xdt,pdt", [(np.float32, np.float32), (np.float64, np.float64),
                                     (np.float32, np.float64)])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_forward_is_bit_identical_to_formula(training, xdt, pdt):
    """Eval mode is the elementwise formula bit for bit; training mode is
    the same formula with its statistics taken as the documented channel
    sums, mean = S(x) / m and var = S((x - mean)^2) / m."""
    rng = np.random.default_rng(4)
    x = (3.0 * rng.standard_normal((16, 5, 6, 7)) + 1.0).astype(xdt)
    gamma, beta = rng.standard_normal(5).astype(pdt), rng.standard_normal(5).astype(pdt)
    rm, rv = rng.standard_normal(5).astype(pdt), rng.uniform(0.5, 2.0, 5).astype(pdt)
    eps, momentum, n = 1e-5, 0.1, 16 * 6 * 7
    erm, erv = rm.copy(), rv.copy()
    if training:
        rows = nhwc(x).reshape(16, -1)
        mean = channel_sums(rows, 6 * 7, 5) / n
        centred = rows - np.tile(mean, 6 * 7)
        var = channel_sums(centred * centred, 6 * 7, 5) / n
        erm *= 1.0 - momentum
        erm += momentum * mean
        erv *= 1.0 - momentum
        erv += momentum * (var * (n / (n - 1)))
    else:
        mean, var = rm.astype(xdt), rv.astype(xdt)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    expect = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    out = tz.batchnorm2d(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), rm, rv, training)
    assert out.dtype == expect.dtype
    assert np.array_equal(out.data, nhwc(expect))
    assert np.array_equal(rm, erm) and np.array_equal(rv, erv)


@pytest.mark.parametrize("xdt,pdt", [(np.float32, np.float32), (np.float64, np.float64),
                                     (np.float32, np.float64)],
                         ids=["float32", "float64", "mixed"])
@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
def test_a_batchnorm_that_records_nothing_gives_the_same_bytes(training, xdt, pdt):
    """Under no_grad, or with every operand frozen, batchnorm2d records no
    node and normalises in its output buffer (mixed dtypes keep the
    recording path's arrays). Outputs and running buffers are byte-equal to
    the recording pass's."""
    rng = np.random.default_rng(12)
    x = (3.0 * rng.standard_normal((16, 6, 7, 5)) + 1.0).astype(xdt)
    gamma, beta = rng.standard_normal(5).astype(pdt), rng.standard_normal(5).astype(pdt)
    rm0, rv0 = rng.standard_normal(5).astype(pdt), rng.uniform(0.5, 2.0, 5).astype(pdt)
    results = []
    for mode in ("record", "no_grad", "frozen"):
        rm, rv = rm0.copy(), rv0.copy()
        x_t, g_t, b_t = (Tensor(a, requires_grad=mode != "frozen") for a in (x, gamma, beta))
        with no_grad() if mode == "no_grad" else contextlib.nullcontext():
            out = tz.batchnorm2d(x_t, g_t, b_t, rm, rv, training)
        assert (out.backward_fn is not None) == (mode == "record")
        results.append((out.data.dtype, out.data.tobytes(), rm.tobytes(), rv.tobytes()))
    assert results[0] == results[1] == results[2]


def test_a_no_grad_batchnorm_allocates_one_output_sized_array():
    """No-grad eval mode allocates its output and per-row constants only;
    training mode adds the squares, freed before it returns. Recording keeps
    xhat beside the output, and a mixed-dtype pass still builds xhat."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((256, 8, 8, 16)).astype(np.float32)
    size = x.nbytes

    def traced(training, grad=False, pdt=np.float32):
        params = [Tensor(rng.standard_normal(16), dtype=pdt, requires_grad=grad)
                  for _ in range(2)]
        buffers = [np.zeros(16, pdt), np.ones(16, pdt)]
        with contextlib.nullcontext() if grad else no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = tz.batchnorm2d(Tensor(x, requires_grad=grad), *params, *buffers,
                                     training)
                now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return out.data.nbytes, now - before, peak - before

    for training in (False, True):
        out, kept, peak = traced(training)
        assert out == size and kept <= 1.05 * size, (training, kept)
        assert peak <= (2.05 if training else 1.05) * size, (training, peak)
    assert traced(False, grad=True)[1] >= 2 * size
    out, _, peak = traced(False, pdt=np.float64)
    assert peak >= out + size, (out, peak)


def test_batchnorm_training_statistics_accuracy(monkeypatch):
    """In float32 at the train-conv network's BN shapes (folded batch 256),
    the channel-sum mean and unbiased variance are each no further from a
    float64 reference, in max relative error over all channels of 24
    inputs, than numpy's mean and var over [B, C, H*W] rows: the order the
    statistics were taken in before the layout moved to channels-last. A
    momentum of 1 makes the running buffers the batch statistics."""
    monkeypatch.setattr(tz, "BN_MOMENTUM", 1.0)
    worst = {"mean": [0.0, 0.0], "var": [0.0, 0.0]}  # [channel sums, numpy]
    for c, hw in ((8, 16), (16, 8), (32, 4)):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            shift = rng.uniform(-2.0, 2.0, (1, c, 1, 1))
            x = (3.0 * rng.standard_normal((256, c, hw, hw)) + shift).astype(np.float32)
            n = 256 * hw * hw
            x64 = x.astype(np.float64)
            rows = x.reshape(256, c, -1)
            rm, rv = np.zeros(c, np.float32), np.zeros(c, np.float32)
            tz.batchnorm2d(Tensor(nhwc(x)), Tensor(np.ones(c, np.float32)),
                           Tensor(np.zeros(c, np.float32)), rm, rv, training=True)
            unbias = n / (n - 1)
            for stat, got, base, ref in (
                    ("mean", rm, rows.mean(axis=(0, 2)), x64.mean(axis=(0, 2, 3))),
                    ("var", rv, rows.var(axis=(0, 2)) * np.float32(unbias),
                     x64.var(axis=(0, 2, 3)) * unbias)):
                for i, arr in enumerate((got, base)):
                    err = float(np.max(np.abs(arr - ref) / np.abs(ref)))
                    worst[stat][i] = max(worst[stat][i], err)
    for stat, (ours, numpy_order) in worst.items():
        assert ours <= numpy_order, (stat, ours, numpy_order)


# ---------------------------------------------------------------------------
# Shape and reduction ops (time_mean is the engine's; the others are the
# reference ops that the composed gate graphs are built from)


@pytest.mark.parametrize("seed", range(2))
def test_shape_op_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4))
    gradcheck(lambda a: reference.reduce_mean(reference.reshape(a, (6, 4)), (0, 1)), x)
    gradcheck(lambda a: reference.reduce_mean(reference.permute(a, (2, 0, 1)), (0, 1, 2)), x)
    y = rng.standard_normal((2, 3, 4))
    gradcheck(lambda a, b: reference.reduce_mean(reference.concat([a, b], 1), (0, 1, 2)), x, y)


@pytest.mark.parametrize("seed", range(3))
def test_reduce_gradients(seed):
    rng = np.random.default_rng(seed)
    x = distinct_random(rng, (3, 4, 5))
    gradcheck(lambda a: reference.reduce_mean(a, (0, 1, 2)), x)
    gradcheck(lambda a: reference.reduce_mean(reference.reduce_max(a, (1,)), (0, 1)), x)
    gradcheck(lambda a: reference.reduce_mean(reference.reduce_max(a, (0, 2), keepdims=True),
                                              (0, 1, 2)), x)
    gradcheck(lambda a: reference.reduce_mean(tz.time_mean(a), (0, 1)), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_time_mean_is_the_general_mean_over_axis_0_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 3, 5)).astype(dtype)
    g = rng.standard_normal((3, 5)).astype(dtype)
    grads = []
    for op in (tz.time_mean, lambda a: reference.reduce_mean(a, (0,))):
        leaf = t(x, requires_grad=True, dtype=dtype)
        out = op(leaf)
        backward(out, seed=g)
        grads.append((out.data.tobytes(), leaf.grad.tobytes(), out.dtype))
    assert grads[0] == grads[1]


def test_reduce_max_tie_takes_first_index():
    x = t([[3.0, 3.0, 1.0]], requires_grad=True)
    out = reference.reduce_max(x, (1,))
    backward(out, seed=np.ones(1))
    assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Loss


def test_softmax_cross_entropy_uniform():
    logits = t(np.zeros((2, 4)), requires_grad=True)
    loss = tz.softmax_cross_entropy(logits, np.array([0, 3]))
    assert np.allclose(float(loss.data), np.log(4.0))
    backward(loss)
    probs = np.full((2, 4), 0.25)
    onehot = np.zeros((2, 4))
    onehot[0, 0] = onehot[1, 3] = 1.0
    assert np.allclose(logits.grad, (probs - onehot) / 2.0)


@pytest.mark.parametrize("seed", range(3))
def test_softmax_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    gradcheck(lambda a: tz.softmax_cross_entropy(a, labels), logits)


def test_softmax_cross_entropy_rejects_nonfinite():
    bad = t([[np.nan, 0.0]])
    with pytest.raises(NumericError):
        tz.softmax_cross_entropy(bad, np.array([0]))


# ---------------------------------------------------------------------------
# Graph mechanics


def test_backward_nonscalar_needs_seed():
    a = t([1.0, 2.0], requires_grad=True)
    out = tz.mul(a, a)
    with pytest.raises(GraphError):
        backward(out)


def test_no_grad_suppresses_graph():
    a = t([1.0], requires_grad=True)
    with no_grad():
        out = tz.mul(a, a)
    assert out.parents == ()
    assert not out.requires_grad
    backward(out, seed=np.ones(1))
    assert a.grad is None and out.grad is None


def test_second_backward_over_a_consumed_graph_raises():
    a = t([1.0, 2.0], requires_grad=True)
    loss = reference.reduce_mean(tz.mul(a, a), (0,))
    backward(loss)
    first = a.grad.copy()
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)
    assert np.array_equal(a.grad, first)


def test_backward_of_a_root_sharing_a_consumed_subgraph_raises():
    """A second root built on nodes that an earlier backward consumed fails
    before any gradient moves, instead of silently adding nothing."""
    a = t([1.0, 2.0], requires_grad=True)
    b = t([3.0, -1.0], requires_grad=True)
    shared = tz.mul(a, b)
    backward(reference.reduce_mean(shared, (0,)))
    first = a.grad.copy()
    other = reference.reduce_mean(tz.add(shared, b), (0,))
    with pytest.raises(GraphError, match="consumed"):
        backward(other)
    assert np.array_equal(a.grad, first) and np.array_equal(b.grad, [0.5, 1.0])


def test_backward_consumes_interior_nodes_and_leaves_keep_grads():
    """After backward no interior node holds a gradient, parents or a
    backward function, a node that never received a gradient included;
    leaves keep their gradients and a constant leaf keeps none."""
    a = t([1.0, -2.0, 3.0], requires_grad=True)
    w = t([0.5, 0.25, 2.0], requires_grad=True)
    const = t([1.0, 1.0, 1.0])
    hidden = reference.relu(tz.mul(a, w))
    starved = tz.mul(a, const)
    stop = tz.make_node(starved.data.copy(), (starved,), lambda g: None)
    loss = reference.reduce_mean(tz.add(hidden, tz.mul(hidden, hidden)), (0,))
    backward(tz.add(loss, reference.reduce_mean(stop, (0,))))
    for node in (hidden, starved, stop, loss):
        assert node.index > 0
        assert node.grad is None and node.backward_fn is None and node.parents == ()
    h = np.maximum(a.data * w.data, 0.0)
    dh = (1.0 + 2.0 * h) / 3.0 * (h > 0)
    assert np.allclose(a.grad, dh * w.data) and np.allclose(w.grad, dh * a.data)
    assert const.grad is None


def test_backward_replay_is_bit_deterministic():
    """Building and differentiating the same graph twice gives the same bits."""
    rng = np.random.default_rng(9)
    x = nhwc(rng.standard_normal((2, 3, 5, 5)))
    w = rng.standard_normal((4, 3, 3, 3))
    grads = []
    for _ in range(2):
        xt = t(x, requires_grad=True)
        wt = t(w, requires_grad=True)
        out = reference.reduce_mean(reference.relu(tz.conv2d(xt, wt, 1, 1)), (0, 1, 2, 3))
        backward(out)
        grads.append((xt.grad.copy(), wt.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


# ---------------------------------------------------------------------------
# Releasing activations


def test_release_keeps_shape_and_dtype_and_reads_nan():
    a = t(np.ones((2, 3, 4)), requires_grad=True, dtype=np.float32)
    h = tz.mul(a, a)
    tz.release(h)
    assert h.shape == (2, 3, 4) and h.dtype == np.float32
    assert np.isnan(h.data).all()
    assert h.data.strides == (0, 0, 0) and not h.data.flags.writeable


def test_release_frees_what_no_backward_captured_and_gradients_still_flow():
    """add saves nothing, so releasing its output frees the array; mul
    captured its operand at forward, so that array stays and its backward
    still reads it."""
    n = 1 << 18
    a = Tensor(np.full(n, 2.0, dtype=np.float32), requires_grad=True)
    b = Tensor(np.full(n, 3.0, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        h = tz.add(a, a)
        y = tz.add(h, b)
        loss = reference.reduce_mean(tz.mul(y, b), (0,))
        freed = []
        for released in (h, y):
            before = tracemalloc.get_traced_memory()[0]
            tz.release(released)
            freed.append(before - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert freed[0] > 0.99 * 4 * n and freed[1] < 0.01 * 4 * n  # less the stand-in's own bytes
    backward(loss)
    assert np.array_equal(a.grad, np.full(n, 6.0 / n, dtype=np.float32))
    assert np.array_equal(b.grad, np.full(n, 10.0 / n, dtype=np.float32))


def test_a_released_tensor_takes_its_first_gradient_uncopied():
    leaf = t(np.ones((2, 3)), requires_grad=True)
    got = []
    h = tz.make_node(leaf.data * 2.0, (leaf,), got.append)
    given = np.full((2, 3), 5.0)
    top = tz.make_node(np.array(1.0), (h,), lambda g: tz._give_grad(h, given))
    tz.release(h)
    backward(top)
    assert got[0] is given


def test_release_leaves_leaves_and_no_grad_outputs_alone():
    leaf = t([1.0, 2.0], requires_grad=True)
    const = t([3.0, 4.0])
    with no_grad():
        out = tz.mul(leaf, const)
    for x in (leaf, const, out):
        data = x.data
        tz.release(x)
        assert x.data is data


def test_assert_finite_names_context():
    with pytest.raises(NumericError) as err:
        tz.assert_finite(np.array([1.0, np.inf]), "probe")
    assert "probe" in str(err.value)
