"""Autograd core: forward fixtures with hand-computed values, gradient
checks against central finite differences, broadcast and graph contracts.
"""

import tracemalloc

import numpy as np
import pytest

import orsnn.tensor as tz
from orsnn.errors import GraphError, NumericError, ShapeError
from orsnn.tensor import Tensor, backward, no_grad

from conftest import distinct_random, gradcheck, margin_random


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
    assert np.array_equal(tz.neg(a).data, [[-1, -2], [-3, -4]])


def test_operator_overloads_and_scalars():
    a = t([1.0, 2.0], requires_grad=True)
    out = (a + 1.0) * 3.0 - 2.0
    assert np.array_equal(out.data, [4.0, 7.0])
    backward(out, seed=np.ones(2))
    assert np.array_equal(a.grad, [3.0, 3.0])


@pytest.mark.parametrize("seed", range(3))
def test_arithmetic_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    gradcheck(lambda x, y: tz.reduce_mean(tz.mul(tz.add(x, y), tz.sub(x, y)), (0, 1)), a, b)


@pytest.mark.parametrize("seed", range(3))
def test_relu_gradient(seed):
    rng = np.random.default_rng(seed)
    a = margin_random(rng, (4, 5))
    gradcheck(lambda x: tz.reduce_mean(tz.relu(x), (0, 1)), a)


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
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    gradcheck(lambda x, y: tz.reduce_mean(tz.matmul(x, y), (0, 1)), a, b)


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
    gradcheck(lambda a, c, d: tz.reduce_mean(tz.dense(a, c, d), (0, 1)), x, w, b)


def test_dense_shape_errors():
    with pytest.raises(ShapeError):
        tz.dense(t(np.ones((2, 3))), t(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        tz.dense(t(np.ones((2, 3))), t(np.ones((4, 3))), t(np.ones(5)))


# ---------------------------------------------------------------------------
# Convolution


def test_conv_identity_kernel():
    x = t(np.arange(16.0).reshape(1, 1, 4, 4))
    w = t(np.ones((1, 1, 1, 1)))
    out = tz.conv2d(x, w, stride=1, padding=0)
    assert np.array_equal(out.data, x.data)


def test_conv_all_ones_sums_to_nine():
    x = t(np.ones((1, 1, 3, 3)))
    w = t(np.ones((1, 1, 3, 3)))
    out = tz.conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.reshape(()) == 9.0


def test_conv_floor_output_extent_and_error():
    x = t(np.ones((1, 1, 28, 28)))
    w = t(np.ones((4, 1, 3, 3)))
    assert tz.conv2d(x, w, stride=2, padding=1).shape == (1, 4, 14, 14)
    small = t(np.ones((1, 1, 2, 2)))
    with pytest.raises(ShapeError):
        tz.conv2d(small, t(np.ones((1, 1, 5, 5))))


@pytest.mark.parametrize("seed", range(3))
def test_conv_kernel_gradient_vs_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((2, 1, 3, 3))
    gradcheck(lambda a, k: tz.reduce_mean(tz.conv2d(a, k), (0, 1, 2, 3)), x, w)


@pytest.mark.parametrize("stride,padding,k,hw", [
    pytest.param(1, 1, 3, (6, 6), id="1-1"),
    pytest.param(2, 1, 3, (6, 6), id="2-1"),
    pytest.param(2, 0, 3, (6, 6), id="2-0"),
    pytest.param(2, 0, 1, (6, 6), id="shortcut-k1-s2-p0"),
    pytest.param(2, 1, 3, (5, 7), id="nonsquare-5x7"),
])
def test_conv_strided_padded_gradient(stride, padding, k, hw):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3) + hw)
    w = rng.standard_normal((4, 3, k, k))
    gradcheck(lambda a, kern: tz.reduce_mean(tz.conv2d(a, kern, stride, padding),
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


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv_matches_loop_reference(k, stride, padding):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    h, wid = 7, 10
    x = Tensor(rng.standard_normal((2, 3, h, wid)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
    out = tz.conv2d(x, w, stride, padding)
    g = rng.standard_normal(out.shape)
    ref, dx, dw = conv_reference(x.data, w.data, g, stride, padding)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    backward(out, seed=g)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
    # rows/columns past the last window are never read: their gradient is 0
    # (6 of the 27 cases leave some, e.g. k5 s3 p0 leaves 2 rows, 2 columns)
    read_h = (out.shape[2] - 1) * stride + k - padding
    read_w = (out.shape[3] - 1) * stride + k - padding
    assert np.all(x.grad[:, :, read_h:, :] == 0)
    assert np.all(x.grad[:, :, :, read_w:] == 0)


def test_conv_one_sided_gradients_match_reference():
    rng = np.random.default_rng(3)
    xd, wd = rng.standard_normal((2, 3, 5, 6)), rng.standard_normal((4, 3, 3, 3))
    g = rng.standard_normal((2, 4, 3, 3))
    _, dx, dw = conv_reference(xd, wd, g, 2, 1)
    # frozen input (the encoder sees data, not a parameter)
    x, w = Tensor(xd), Tensor(wd, requires_grad=True)
    backward(tz.conv2d(x, w, 2, 1), seed=g)
    assert x.grad is None
    np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
    # frozen kernel
    x, w = Tensor(xd, requires_grad=True), Tensor(wd)
    backward(tz.conv2d(x, w, 2, 1), seed=g)
    assert w.grad is None
    np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("xdt,wdt", [(np.float32, np.float64), (np.float64, np.float32),
                                     (np.float32, np.float32)])
def test_conv_output_dtype_is_result_type(xdt, wdt):
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 6, 5)), dtype=xdt, requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=wdt, requires_grad=True)
    out = tz.conv2d(x, w, 1, 1)
    assert out.dtype == np.result_type(x.data, w.data)
    ref, _, _ = conv_reference(x.data, w.data, None, 1, 1)
    tol = 1e-12 if out.dtype == np.float64 else 1e-5
    np.testing.assert_allclose(out.data, ref, rtol=tol, atol=tol)
    backward(out, seed=np.ones(out.shape))
    assert x.grad.dtype == xdt and w.grad.dtype == wdt


def test_conv_node_retains_only_its_output():
    # the taped node must not keep the padded input (or any input copy)
    # alive until backward: that would grow peak memory by ~1 input per conv
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((32, 8, 16, 16)), dtype=np.float32, requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 3, 3)), dtype=np.float32, requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = tz.conv2d(x, w, 1, 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.backward_fn is not None
    assert retained <= 1.1 * out.data.nbytes, (retained, out.data.nbytes)


@pytest.mark.parametrize("xshape,wshape,stride,padding", [
    # 16*16 positions * 9 taps * 16 channels > _CONV_CHUNK: one sample per chunk
    pytest.param((3, 16, 16, 16), (5, 16, 3, 3), 1, 1, id="one-sample-per-chunk"),
    # 70 positions * 27 taps fit 17 samples per chunk: 20 = 17 + a ragged 3
    pytest.param((20, 3, 7, 10), (4, 3, 3, 3), 1, 1, id="ragged-last-chunk"),
])
def test_conv_chunking_matches_loop_reference(xshape, wshape, stride, padding):
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal(xshape), requires_grad=True)
    w = Tensor(rng.standard_normal(wshape), requires_grad=True)
    out = tz.conv2d(x, w, stride, padding)
    per_sample = out.shape[2] * out.shape[3] * wshape[1] * wshape[2] ** 2
    samples = max(1, tz._CONV_CHUNK // per_sample)
    assert samples == 1 or xshape[0] % samples, "case no longer exercises chunking"
    g = rng.standard_normal(out.shape)
    ref, dx, dw = conv_reference(x.data, w.data, g, stride, padding)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    backward(out, seed=g)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12)


def test_conv_forward_transient_memory():
    # one forward copies the input once (padded NHWC) plus one column block
    # per chunk; a whole-batch im2col would peak near 11.6x the output
    rng = np.random.default_rng(0)
    x = Tensor((rng.random((512, 16, 8, 8)) < 0.2).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), dtype=np.float32)
    with no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tz.conv2d(x, w, 1, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak <= 3.5 * out.data.nbytes, (peak, out.data.nbytes)


# ---------------------------------------------------------------------------
# Pooling


def test_max_pool_routes_gradient_to_first_argmax():
    x = t([[[[1.0, 1.0], [1.0, 1.0]]]], requires_grad=True)
    out = tz.max_pool2d(x, 2)
    backward(out, seed=np.ones((1, 1, 1, 1)))
    assert np.array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_avg_pool_distributes_uniformly():
    x = t(np.ones((1, 1, 4, 4)), requires_grad=True)
    out = tz.avg_pool2d(x, 2)
    backward(out, seed=np.ones((1, 1, 2, 2)))
    assert np.allclose(x.grad, 0.25)


def test_avg_pool_padding_counts_in_divisor():
    x = t(np.ones((1, 1, 2, 2)))
    out = tz.avg_pool2d(x, 2, stride=2, padding=1)
    # each window sees a single 1 among 4 slots
    assert np.allclose(out.data, 0.25)


@pytest.mark.parametrize("seed", range(3))
def test_pool_gradients(seed):
    rng = np.random.default_rng(seed)
    x = distinct_random(rng, (2, 2, 4, 4))
    gradcheck(lambda a: tz.reduce_mean(tz.max_pool2d(a, 2), (0, 1, 2, 3)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.avg_pool2d(a, 2), (0, 1, 2, 3)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.global_avg_pool(a), (0, 1)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.adaptive_avg_pool2d(a, 3), (0, 1, 2, 3)), x)


def test_adaptive_pool_identity_and_window_match():
    x = np.random.default_rng(0).standard_normal((1, 2, 6, 6))
    same = tz.adaptive_avg_pool2d(t(x), 6)
    assert np.allclose(same.data, x)
    halved = tz.adaptive_avg_pool2d(t(x), 3)
    assert np.allclose(halved.data, tz.avg_pool2d(t(x), 2).data)


# ---------------------------------------------------------------------------
# Batchnorm


def test_batchnorm_fixed_point():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 4, 4))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    gamma = t(np.ones(3))
    beta = t(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    out = tz.batchnorm2d(t(x), gamma, beta, rm, rv, training=True)
    assert np.allclose(out.data, x, atol=1e-4)


def test_batchnorm_constant_channel_gives_beta():
    x = t(np.full((4, 2, 3, 3), 7.0))
    beta = t(np.array([1.5, -2.0]))
    out = tz.batchnorm2d(x, t(np.ones(2)), beta, np.zeros(2), np.ones(2),
                         training=True)
    assert np.allclose(out.data[:, 0], 1.5, atol=1e-6)
    assert np.allclose(out.data[:, 1], -2.0, atol=1e-6)


def test_batchnorm_running_stats_update_and_infer():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    tz.batchnorm2d(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv, training=True,
                   momentum=0.1)
    n = 16 * 9
    expect_rm = 0.1 * x.mean(axis=(0, 2, 3))
    expect_rv = 0.9 + 0.1 * (x.var(axis=(0, 2, 3)) * n / (n - 1))
    assert np.allclose(rm, expect_rm)
    assert np.allclose(rv, expect_rv)
    frozen_rm, frozen_rv = rm.copy(), rv.copy()
    out = tz.batchnorm2d(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv,
                         training=False)
    assert np.array_equal(rm, frozen_rm) and np.array_equal(rv, frozen_rv)
    expect = (x - rm[None, :, None, None]) / np.sqrt(rv + 1e-5)[None, :, None, None]
    assert np.allclose(out.data, expect)


@pytest.mark.parametrize("seed,training", [
    *(pytest.param(s, True, id=str(s)) for s in range(3)),
    *(pytest.param(s, False, id=f"eval-{s}") for s in range(3)),
])
def test_batchnorm_gradients(seed, training):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 2, 3, 3))
    gamma = rng.standard_normal(2) + 2.0
    beta = rng.standard_normal(2)
    # non-uniform weights: the plain mean of BN's output is mean(beta), whose
    # gradient wrt x and gamma is 0 whatever the backward computes
    weights = Tensor(rng.uniform(0.5, 1.5, size=x.shape))
    running_mean, running_var = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)

    def fn(a, g, b):
        y = tz.batchnorm2d(a, g, b, running_mean.copy(), running_var.copy(),
                           training=training)
        return tz.reduce_mean(y * weights, (0, 1, 2, 3))

    gradcheck(fn, x, gamma, beta)


@pytest.mark.parametrize("xdt,pdt", [(np.float32, np.float32), (np.float64, np.float64),
                                     (np.float32, np.float64)])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_forward_is_bit_identical_to_formula(training, xdt, pdt):
    rng = np.random.default_rng(4)
    x = (3.0 * rng.standard_normal((16, 5, 6, 7)) + 1.0).astype(xdt)
    gamma, beta = rng.standard_normal(5).astype(pdt), rng.standard_normal(5).astype(pdt)
    rm, rv = rng.standard_normal(5).astype(pdt), rng.uniform(0.5, 2.0, 5).astype(pdt)
    eps, momentum, axes, n = 1e-5, 0.1, (0, 2, 3), 16 * 6 * 7
    erm, erv = rm.copy(), rv.copy()
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        erm *= 1.0 - momentum
        erm += momentum * mean
        erv *= 1.0 - momentum
        erv += momentum * (var * (n / (n - 1)))
    else:
        mean, var = rm.astype(xdt), rv.astype(xdt)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    expect = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    out = tz.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training, eps, momentum)
    assert out.dtype == expect.dtype
    assert np.array_equal(out.data, expect)
    assert np.array_equal(rm, erm) and np.array_equal(rv, erv)


# ---------------------------------------------------------------------------
# Shape plumbing


@pytest.mark.parametrize("seed", range(2))
def test_shape_op_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4))
    gradcheck(lambda a: tz.reduce_mean(tz.reshape(a, (6, 4)), (0, 1)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.permute(a, (2, 0, 1)), (0, 1, 2)), x)
    y = rng.standard_normal((2, 3, 4))
    gradcheck(lambda a, b: tz.reduce_mean(tz.concat([a, b], 1), (0, 1, 2)), x, y)


@pytest.mark.parametrize("seed", range(3))
def test_reduce_gradients(seed):
    rng = np.random.default_rng(seed)
    x = distinct_random(rng, (3, 4, 5))
    gradcheck(lambda a: tz.reduce_mean(a, (0, 1, 2)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.reduce_max(a, (1,)), (0, 1)), x)
    gradcheck(lambda a: tz.reduce_mean(tz.reduce_max(a, (0, 2), keepdims=True),
                                       (0, 1, 2)), x)


def test_reduce_max_tie_takes_first_index():
    x = t([[3.0, 3.0, 1.0]], requires_grad=True)
    out = tz.reduce_max(x, (1,))
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


def test_backward_replay_is_bit_deterministic():
    """Building and differentiating the same graph twice gives the same bits."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    grads = []
    for _ in range(2):
        xt = t(x, requires_grad=True)
        wt = t(w, requires_grad=True)
        out = tz.reduce_mean(tz.relu(tz.conv2d(xt, wt, 1, 1)), (0, 1, 2, 3))
        backward(out)
        grads.append((xt.grad.copy(), wt.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_assert_finite_names_context():
    with pytest.raises(NumericError) as err:
        tz.assert_finite(np.array([1.0, np.inf]), "probe")
    assert "probe" in str(err.value)
