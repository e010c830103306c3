"""Leaky integrate-and-fire dynamics: frozen hand-traced sequences, the
threshold-equality firing rule, surrogate gradient values, reset handling,
gradient checks through the smooth twin, and the fused multi-step op
against the scalar oracle and the per-step Tensor graph it replaced. Every
rollout starts from rest; the membrane after step t is the final membrane
of the rollout over the first t + 1 steps.
"""

import tracemalloc

import numpy as np
import pytest

import orsnn.neuron as nrn
import orsnn.tensor as tz
from orsnn.errors import ConfigError, NumericError, ShapeError
from orsnn.layers import ForwardContext, LIFLayer
from orsnn.neuron import LIFConfig, _surrogate_grad, fire_from_rest, lif_multistep
from orsnn.tensor import Tensor, accumulate_grad, backward, make_node

import reference
from conftest import (gradcheck, lif_reference_trace, margin_random, smooth_spike_fn,
                      spike_fn)

# Hand-computed 10-step rollout with tau=2, threshold=1, hard reset to 0:
#   U[t] = (H[t-1] + I[t]) / 2,  S[t] = [U >= 1],  H[t] = U * (1 - S)
HAND_CURRENTS = [0.5, 0.5, 0.5, 2.0, 0.0, 1.5, 0.2, 0.9, 3.0, 0.0]
HAND_POTENTIALS = [0.25, 0.375, 0.4375, 1.21875, 0.0, 0.75, 0.475, 0.6875,
                   1.84375, 0.0]
HAND_SPIKES = [0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
HAND_MEMBRANES = [0.25, 0.375, 0.4375, 0.0, 0.0, 0.75, 0.475, 0.6875, 0.0, 0.0]


def rollout(currents, cfg, smooth=False):
    """The spikes of one rollout over all currents, and the membrane after
    every step, from the rollout over each prefix."""
    x = np.array(currents, dtype=np.float64)[:, None]
    spikes, _ = lif_multistep(Tensor(x), cfg, smooth=smooth)
    membranes = [float(lif_multistep(Tensor(x[:t + 1]), cfg, smooth=smooth)[1][0])
                 for t in range(len(x))]
    return spikes.data[:, 0].tolist(), membranes


def test_hand_traced_sequence_matches_engine():
    cfg = LIFConfig(tau=2.0, u_threshold=1.0, u_reset=0.0)
    spikes, membranes = rollout(HAND_CURRENTS, cfg)
    assert np.max(np.abs(np.array(spikes) - HAND_SPIKES)) <= 1e-12
    assert np.max(np.abs(np.array(membranes) - HAND_MEMBRANES)) <= 1e-12


def test_reference_trace_agrees_with_hand_values():
    cfg = LIFConfig()
    trace = lif_reference_trace(HAND_CURRENTS, cfg)
    assert np.allclose(trace.potentials, HAND_POTENTIALS, atol=1e-12)
    assert np.allclose(trace.spikes, HAND_SPIKES, atol=1e-12)
    assert np.allclose(trace.membranes, HAND_MEMBRANES, atol=1e-12)


def test_fires_exactly_at_threshold():
    # (0 + 2) / 2 reaches the threshold exactly; equality must fire
    cfg = LIFConfig()
    spikes, membranes = rollout([2.0], cfg)
    assert spikes == [1.0]
    assert membranes == [0.0]


def test_subthreshold_accumulation_and_decay():
    cfg = LIFConfig()
    spikes, membranes = rollout([0.5, 0.5, 0.0, 0.0], cfg)
    assert spikes == [0.0, 0.0, 0.0, 0.0]
    assert np.allclose(membranes, [0.25, 0.375, 0.1875, 0.09375])


def test_nonzero_reset_level():
    cfg = LIFConfig(u_reset=0.5, u_threshold=1.0)
    s, membrane = lif_multistep(Tensor(np.array([[2.0]])), cfg)
    # U = 0.5 + (2 - 0) / 2 = 1.5 -> fires, membrane hard-resets to 0
    assert s.data[0, 0] == 1.0
    assert membrane[0] == 0.0
    assert fire_from_rest(np.array([2.0]), cfg)[0][0] == 1.0


def test_step_function_signs():
    v = Tensor(np.array([0.2, -0.2, 0.0]))
    out = spike_fn(v)
    assert np.array_equal(out.data, [1.0, 0.0, 1.0])


def test_surrogate_value_at_zero():
    assert _surrogate_grad(np.array(0.0), alpha=2.0) == pytest.approx(1.0)
    assert _surrogate_grad(np.array(0.0), alpha=4.0) == pytest.approx(2.0)


def test_surrogate_matches_smooth_primitive_slope():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    gradcheck(lambda a: tz.reduce_mean(smooth_spike_fn(a, 2.0), (0,)), v)


def test_spike_backward_uses_surrogate():
    v = Tensor(np.array([0.3, -0.4]), requires_grad=True)
    out = spike_fn(v, alpha=2.0)
    backward(out, seed=np.ones(2))
    assert np.allclose(v.grad, _surrogate_grad(v.data, 2.0))


def test_multistep_needs_a_time_axis():
    for shape in [(), (0, 3)]:
        with pytest.raises(ShapeError):
            lif_multistep(Tensor(np.zeros(shape)), LIFConfig())


def test_nonfinite_current_raises():
    with pytest.raises(NumericError):
        lif_multistep(Tensor(np.array([[np.inf]])), LIFConfig())
    with pytest.raises(NumericError):
        fire_from_rest(np.array([np.inf]), LIFConfig())


def test_config_validation():
    with pytest.raises(ConfigError, match="tau"):
        LIFConfig(tau=0.0)
    with pytest.raises(ConfigError, match="must exceed u_reset"):
        LIFConfig(u_threshold=0.0, u_reset=0.0)
    with pytest.raises(ConfigError, match="hard reset"):
        LIFConfig(reset_mode="soft")
    with pytest.raises(ConfigError, match="surrogate_alpha"):
        LIFConfig(surrogate_alpha=-1.0)
    with pytest.raises(ConfigError, match="tau"):
        LIFConfig(tau=np.nan, u_threshold=np.nan)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["tau", "u_threshold", "u_reset", "surrogate_alpha"])
def test_a_nan_or_infinite_constant_is_refused(key, value):
    with pytest.raises(ConfigError):
        LIFConfig(**{key: value})


def test_detach_reset_changes_gradient():
    def run(detach):
        cfg = LIFConfig(detach_reset=detach)
        x = Tensor(np.tile([0.9, 1.7, 0.4], (3, 1)), requires_grad=True)
        s, _ = lif_multistep(x, cfg)
        backward(tz.reduce_mean(s, (0, 1)))
        return x.grad.copy()

    g_detached = run(True)
    g_attached = run(False)
    assert not np.allclose(g_detached, g_attached)


@pytest.mark.parametrize("seed", range(4))
def test_smooth_twin_two_layer_net_gradient(seed):
    """Conv -> smooth LIF -> dense -> smooth LIF over 3 steps, each LIF stage
    one fused node over the time axis, checked against finite differences
    end to end. The reset gate stays in the graph so autodiff covers every
    smooth-forward dependency."""
    rng = np.random.default_rng(seed)
    cfg = LIFConfig(detach_reset=False)
    x = margin_random(rng, (3, 1, 1, 4, 4), scale=1.5)
    w1 = rng.standard_normal((2, 1, 3, 3)) * 0.7
    w2 = rng.standard_normal((2, 8)) * 0.7
    b2 = rng.standard_normal(2) * 0.1

    def fn(xt, w1t, w2t, b2t):
        c = tz.conv2d(reference.reshape(xt, (3, 4, 4, 1)), w1t, 1, 0)  # channels-last, C = 1
        sp1, _ = lif_multistep(reference.reshape(c, (3, 1, 2, 2, 2)), cfg, smooth=True)
        d = tz.dense(reference.reshape(sp1, (3, 8)), w2t, b2t)
        sp2, _ = lif_multistep(reference.reshape(d, (3, 1, 2)), cfg, smooth=True)
        return tz.reduce_mean(sp2, (0, 1, 2))

    gradcheck(fn, x, w1, w2, b2)


# ---------------------------------------------------------------------------
# Fused multi-step op


@pytest.mark.parametrize("cfg", [LIFConfig(), LIFConfig(tau=4.0, u_reset=0.25, u_threshold=1.5)])
def test_multistep_matches_reference_trace_per_column(cfg):
    """A [T=10, N=6] rollout equals the scalar oracle column by column. The
    currents are dyadic, so float64 is exact and threshold ties are real;
    column 0 starts from rest with the current that lands U on threshold."""
    rng = np.random.default_rng(0)
    currents = rng.integers(0, 13, size=(10, 6)) * 0.25
    currents[:, 0] = cfg.tau * (cfg.u_threshold - cfg.u_reset)
    traces = [lif_reference_trace(currents[:, c], cfg) for c in range(6)]
    assert any(u == cfg.u_threshold for tr in traces for u in tr.potentials)
    spikes, _ = lif_multistep(Tensor(currents), cfg)
    assert spikes.data.tolist() == [list(row) for row in zip(*(tr.spikes for tr in traces))]
    for steps in range(1, 11):  # the membrane after every prefix
        _, membrane = lif_multistep(Tensor(currents[:steps]), cfg)
        assert membrane.tolist() == [tr.membranes[steps - 1] for tr in traces]


def _stack(parts):
    def bwd(g):
        for t, p in enumerate(parts):
            accumulate_grad(p, g[t])

    return make_node(np.stack([p.data for p in parts]), tuple(parts), bwd)


def _per_step_rollout(steps, cfg, smooth):
    """The per-step Tensor graph the fused op replaced, as the reference."""
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
    return _stack(outs), h


# "rest-both" in the case ids: each rollout starts from rest, and both of its
# outputs (the spikes and the final membrane) are checked.
@pytest.mark.parametrize("shape", [(6, 3, 4), (5, 4, 4096), (3, 2, 20000), (32, 8, 128)],
                         ids=["rest-both-small", "rest-both-chunked", "rest-both-span1",
                              "rest-both-longT"])
@pytest.mark.parametrize("smooth", [False, True], ids=["step", "smooth"])
@pytest.mark.parametrize("detach", [True, False], ids=["detach", "attach"])
def test_multistep_gradient_matches_per_step_graph(detach, smooth, shape):
    """Spikes, final membrane and the gradient of x equal the per-step
    graph's bit for bit, for an objective on the spikes: the BPTT loop keeps
    the graph's op order."""
    steps_per_chunk = nrn._BPTT_CHUNK // np.prod(shape[1:])
    if shape[0] == 5:  # backward chunks of 2 steps over T=5, the last one short
        assert steps_per_chunk == 2
    if shape[0] == 3:  # a step larger than a chunk, as train-conv's first LIFs
        assert steps_per_chunk == 0
    if shape[0] == 32:  # all of T=32 in one chunk, at train-longT's 1K-float steps
        assert steps_per_chunk >= 32
    cfg = LIFConfig(tau=3.0, detach_reset=detach)
    rng = np.random.default_rng(4)
    x = rng.normal(0.9, 1.0, size=shape)
    w_s = Tensor(rng.normal(size=x.shape))

    xf = Tensor(x, requires_grad=True)
    fused, final = lif_multistep(xf, cfg, smooth=smooth)
    backward(tz.reduce_mean(tz.mul(fused, w_s), (0, 1, 2)))

    steps = [Tensor(x_t, requires_grad=True) for x_t in x]
    ref, membrane = _per_step_rollout(steps, cfg, smooth)
    backward(tz.reduce_mean(tz.mul(ref, w_s), (0, 1, 2)))

    assert np.array_equal(fused.data, ref.data)
    assert np.array_equal(final, membrane.data)
    want = np.stack([s.grad for s in steps])
    assert np.any(want != 0)
    assert np.array_equal(xf.grad, want)


def test_a_negative_zero_reset_level_keeps_the_graphs_zero_signs():
    """H - u_reset is skipped only for u_reset = +0: with -0 it turns a -0
    membrane into +0, and the rollout keeps that sign as the graph did."""
    cfg = LIFConfig(u_reset=-0.0)
    x = np.array([[0.0, -0.0, 0.5, -0.5]])
    _, final = lif_multistep(Tensor(x), cfg)
    _, membrane = _per_step_rollout([Tensor(x_t) for x_t in x], cfg, False)
    assert np.any(np.signbit(membrane.data) & (membrane.data == 0))
    assert final.tobytes() == membrane.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("detach", [True, False], ids=["detach", "attach"])
@pytest.mark.parametrize("u_reset", [0.0, -0.0, 0.5])
def test_fire_from_rest_is_one_step_of_lif_multistep(u_reset, detach, dtype):
    """The gates' fresh neuron: its spikes and the drive's gradient are
    byte-equal to lif_multistep's over a [1, ...] input, at drives that land
    on the threshold or are zeros of either sign and at output gradients
    that are zeros of either sign."""
    cfg = LIFConfig(u_reset=u_reset, detach_reset=detach)
    rng = np.random.default_rng(5)
    drive = rng.normal(1.0, 2.0, size=(6, 5)).astype(dtype)
    drive.reshape(-1)[:3] = [2.0 * (1.0 - u_reset), 0.0, -0.0]  # [0] fires at threshold
    g = rng.normal(size=drive.shape).astype(dtype)
    g.reshape(-1)[3:5] = [0.0, -0.0]

    spikes, drive_grad = fire_from_rest(drive, cfg)
    x = Tensor(drive[None].copy(), requires_grad=True)
    want, _ = lif_multistep(x, cfg)
    backward(want, seed=g[None])
    assert spikes.dtype == dtype and spikes.reshape(-1)[0] == 1.0
    assert spikes.tobytes() == want.data[0].tobytes()
    assert drive_grad(g).tobytes() == x.grad[0].tobytes()


def _kept_arrays(node):
    """The arrays a node's backward closure keeps (U, S and constants for LIF)."""
    return [c.cell_contents for c in node.backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


def test_a_rollout_writes_only_its_own_arrays():
    """The rollout runs in place, but only in arrays it allocated: the input
    is unchanged, by the forward and by the backward, and the returned
    membrane shares no memory with the input, U or S."""
    rng = np.random.default_rng(8)
    cfg = LIFConfig()
    x = rng.normal(0.9, 1.0, size=(4, 3, 5))
    xt = Tensor(x.copy(), requires_grad=True)

    spikes, membrane = lif_multistep(xt, cfg)
    assert np.any(membrane != 0)
    kept = _kept_arrays(spikes)
    assert len(kept) >= 2
    for other in [xt.data, spikes.data, *kept]:
        assert not np.shares_memory(membrane, other)
    assert np.array_equal(xt.data, x)

    backward(tz.reduce_mean(tz.mul(spikes, Tensor(rng.normal(size=x.shape))),
                            tuple(range(x.ndim))))
    assert np.array_equal(xt.data, x)
    assert np.any(xt.grad != 0)


def _surrogate_formula(v, alpha):
    """_surrogate_grad's formula in its own op order, as the per-step graph
    computed it."""
    half = np.pi * alpha * v / 2.0
    return alpha / (2.0 * (1.0 + half * half))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [2.0, 0.5])
def test_surrogate_grad_in_place_is_its_formula_bit_for_bit(dtype, alpha):
    """_surrogate_grad, allocating or in place, rounds as its formula does at
    edge inputs: 0, subnormals, 1e-30, 1, and the largest v whose
    (pi*alpha*v/2)^2 stays finite, and the next one up. There a folded
    alpha/2 would not: 2 (1 + half^2) overflows to inf where
    (alpha/2) / (1 + half^2) is a subnormal. A folded pi*alpha/2 changes only
    halves whose square is 0 or inf either way, so no input tells it apart."""
    info = np.finfo(dtype)

    def square_finite(v):
        half = np.pi * alpha * np.array(v, dtype) / 2.0
        return bool(np.isfinite(half * half))

    with np.errstate(over="ignore"):
        big = np.array(np.sqrt(info.max) / (np.pi * alpha / 2.0), dtype)
        while not square_finite(big):
            big = np.nextafter(big, dtype(0))
        while square_finite(np.nextafter(big, dtype(np.inf))):
            big = np.nextafter(big, dtype(np.inf))
        edges = [0.0, info.smallest_subnormal, info.smallest_normal / 2, 1e-30, 1.0,
                 big, np.nextafter(big, dtype(np.inf))]
        v = np.array(edges + [-e for e in edges], dtype)
        want = _surrogate_formula(v, alpha)
        got = _surrogate_grad(v, alpha)
        buf = v.copy()
        in_place = _surrogate_grad(buf, alpha, out=buf)
        half = np.pi * alpha * v / 2.0
        folded = (alpha / 2.0) / (1.0 + half * half)
    assert want.dtype == got.dtype == in_place.dtype == dtype
    assert in_place is buf
    assert want.tobytes() == got.tobytes() == in_place.tobytes()
    assert folded.tobytes() != want.tobytes()  # the edges tell a fold apart


def test_lif_layer_is_one_node_between_input_and_output():
    x = Tensor(np.random.default_rng(6).normal(size=(4, 2, 3, 5, 5)), requires_grad=True)
    layer = LIFLayer("lif", LIFConfig())
    out = layer.forward(x, ForwardContext())
    assert out.parents == (x,)


def test_lif_layer_retains_little_beyond_its_output():
    """One forward keeps U and S, 2x its output's bytes, and nothing else:
    no membrane outlives the call."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(0.9, 1.0, size=(8, 16, 8, 8, 8)).astype(np.float32),
               requires_grad=True)
    layer = LIFLayer("lif", LIFConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer.forward(x, ForwardContext())
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.backward_fn is not None
    assert retained <= 2.05 * out.data.nbytes, (retained, out.data.nbytes)


@pytest.mark.parametrize("dtype,steps,smooth", [
    pytest.param(dtype, steps, smooth, id="-".join((
        "lif_multistep", np.dtype(dtype).name, str(steps), "smooth" if smooth else "step")))
    for dtype in (np.float32, np.float64) for steps in (1, 32) for smooth in (False, True)])
def test_a_pass_that_records_nothing_fires_the_same_bytes(dtype, steps, smooth):
    """No-grad, the step kernel builds U in the spike buffer and fires it in
    place; the smooth twin keeps its own U. Either way spikes and final
    membrane are byte-equal to the recording pass's, at a current that
    lands exactly on the threshold too."""
    rng = np.random.default_rng(steps)
    cfg = LIFConfig()
    shape = (steps, 6, 5)
    x = rng.normal(0.9, 1.0, size=shape).astype(dtype)
    x.reshape(-1)[:3] = [2.0, 1.0, -0.0]  # fires at threshold from rest

    recorded, recorded_h = lif_multistep(Tensor(x, requires_grad=True), cfg, smooth)
    with tz.no_grad():
        quiet, quiet_h = lif_multistep(Tensor(x, requires_grad=True), cfg, smooth)
    frozen, frozen_h = lif_multistep(Tensor(x), cfg, smooth)
    assert recorded.backward_fn is not None
    assert quiet.backward_fn is None and frozen.backward_fn is None
    assert recorded.dtype == quiet.dtype == dtype
    assert recorded.data.tobytes() == quiet.data.tobytes() == frozen.data.tobytes()
    assert recorded_h.tobytes() == quiet_h.tobytes() == frozen_h.tobytes()
    assert not smooth or not np.isin(recorded.data, (0.0, 1.0)).all()


def test_a_no_grad_rollout_allocates_no_second_time_axis_array():
    """At [T=8, 64, 8, 8, 16] float32 a no-grad rollout holds S and one
    step's H at its peak, where a U buffer would add a second [T, ...]
    array; the recording rollout keeps U and S."""
    x = Tensor(np.random.default_rng(9).normal(0.9, 1.0, size=(8, 64, 8, 8, 16))
               .astype(np.float32), requires_grad=True)
    peaks = {}
    for grad in (False, True):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if grad:
                spikes, _ = lif_multistep(x, LIFConfig())
            else:
                with tz.no_grad():
                    spikes, _ = lif_multistep(x, LIFConfig())
            peaks[grad] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        del spikes
    full, step = x.data.nbytes, x.data[0].nbytes
    assert peaks[False] <= full + 2 * step, (peaks, full)
    assert peaks[True] >= 2 * full, (peaks, full)
