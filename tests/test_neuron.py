"""Leaky integrate-and-fire dynamics: frozen hand-traced sequences, the
threshold-equality firing rule, surrogate gradient values, reset handling,
gradient checks through the smooth twin, and the fused multi-step op
against the scalar oracle and the per-step Tensor graph it replaced.
"""

import tracemalloc

import numpy as np
import pytest

import orsnn.neuron as nrn
import orsnn.tensor as tz
from orsnn.errors import NumericError, ShapeError
from orsnn.layers import ForwardContext, LIFLayer
from orsnn.neuron import (LIFConfig, LIFState, lif_multistep, lif_reference_trace,
                          lif_step, smooth_spike_fn, spike_fn, surrogate_grad)
from orsnn.tensor import Tensor, accumulate_grad, backward, make_node

from conftest import gradcheck, margin_random

# Hand-computed 10-step rollout with tau=2, threshold=1, hard reset to 0:
#   U[t] = (H[t-1] + I[t]) / 2,  S[t] = [U >= 1],  H[t] = U * (1 - S)
HAND_CURRENTS = [0.5, 0.5, 0.5, 2.0, 0.0, 1.5, 0.2, 0.9, 3.0, 0.0]
HAND_POTENTIALS = [0.25, 0.375, 0.4375, 1.21875, 0.0, 0.75, 0.475, 0.6875,
                   1.84375, 0.0]
HAND_SPIKES = [0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
HAND_MEMBRANES = [0.25, 0.375, 0.4375, 0.0, 0.0, 0.75, 0.475, 0.6875, 0.0, 0.0]


def rollout(currents, cfg, smooth=False):
    state = LIFState()
    spikes, membranes = [], []
    for i in currents:
        s = lif_step(state, Tensor(np.array([float(i)], dtype=np.float64)), cfg,
                     smooth=smooth)
        spikes.append(float(s.data[0]))
        membranes.append(float(state.membrane.data[0]))
    return spikes, membranes


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
    state = LIFState()
    s = lif_step(state, Tensor(np.array([2.0])), cfg)
    # U = 0.5 + (2 - 0) / 2 = 1.5 -> fires, membrane hard-resets to 0
    assert s.data[0] == 1.0
    assert state.membrane.data[0] == 0.0


def test_step_function_signs():
    v = Tensor(np.array([0.2, -0.2, 0.0]))
    out = spike_fn(v)
    assert np.array_equal(out.data, [1.0, 0.0, 1.0])


def test_surrogate_value_at_zero():
    assert surrogate_grad(np.array(0.0), alpha=2.0) == pytest.approx(1.0)
    assert surrogate_grad(np.array(0.0), alpha=4.0) == pytest.approx(2.0)


def test_surrogate_matches_smooth_primitive_slope():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    gradcheck(lambda a: tz.reduce_mean(smooth_spike_fn(a, 2.0), (0,)), v)


def test_spike_backward_uses_surrogate():
    v = Tensor(np.array([0.3, -0.4]), requires_grad=True)
    out = spike_fn(v, alpha=2.0)
    backward(out, seed=np.ones(2))
    assert np.allclose(v.grad, surrogate_grad(v.data, 2.0))


def test_state_shape_mismatch_raises():
    cfg = LIFConfig()
    state = LIFState()
    lif_step(state, Tensor(np.zeros(3)), cfg)
    with pytest.raises(ShapeError):
        lif_step(state, Tensor(np.zeros(4)), cfg)


def test_multistep_needs_a_time_axis():
    for shape in [(), (0, 3)]:
        with pytest.raises(ShapeError):
            lif_multistep(LIFState(), Tensor(np.zeros(shape)), LIFConfig())


def test_nonfinite_current_raises():
    with pytest.raises(NumericError):
        lif_step(LIFState(), Tensor(np.array([np.inf])), LIFConfig())


def test_reset_clears_membrane():
    state = LIFState()
    lif_step(state, Tensor(np.ones(2)), LIFConfig())
    assert state.membrane is not None and state.steps == 1
    state.reset()
    assert state.membrane is None and state.steps == 0


def test_config_validation():
    with pytest.raises(ValueError):
        LIFConfig(tau=0.0)
    with pytest.raises(ValueError):
        LIFConfig(u_threshold=0.0, u_reset=0.0)
    with pytest.raises(ValueError):
        LIFConfig(reset_mode="soft")
    with pytest.raises(ValueError):
        LIFConfig(surrogate_alpha=-1.0)


def test_detach_reset_changes_gradient():
    def run(detach):
        cfg = LIFConfig(detach_reset=detach)
        x = Tensor(np.array([0.9, 1.7, 0.4]), requires_grad=True)
        state = LIFState()
        total = None
        for _ in range(3):
            s = lif_step(state, x, cfg)
            total = s if total is None else total + s
        out = tz.reduce_mean(total, (0,))
        backward(out)
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
        c = tz.conv2d(tz.reshape(xt, (3, 1, 4, 4)), w1t, 1, 0)
        sp1 = lif_multistep(LIFState(), tz.reshape(c, (3, 1, 2, 2, 2)), cfg, smooth=True)
        d = tz.dense(tz.reshape(sp1, (3, 8)), w2t, b2t)
        sp2 = lif_multistep(LIFState(), tz.reshape(d, (3, 1, 2)), cfg, smooth=True)
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
    spikes = lif_multistep(LIFState(), Tensor(currents), cfg)
    assert spikes.data.tolist() == [list(row) for row in zip(*(tr.spikes for tr in traces))]
    for steps in range(1, 11):  # the membrane after every prefix
        state = LIFState()
        lif_multistep(state, Tensor(currents[:steps]), cfg)
        assert state.membrane.data.tolist() == [tr.membranes[steps - 1] for tr in traces]
        assert state.steps == steps


def _stack(parts):
    def bwd(g):
        for t, p in enumerate(parts):
            accumulate_grad(p, g[t])

    return make_node(np.stack([p.data for p in parts]), tuple(parts), bwd)


def _per_step_rollout(steps, h0, cfg, smooth):
    """The per-step Tensor graph the fused op replaced, as the reference."""
    fire = smooth_spike_fn if smooth else spike_fn
    h = h0 if h0 is not None else Tensor(np.full(steps[0].shape, cfg.u_reset))
    outs = []
    for x_t in steps:
        u = h + (x_t - (h - cfg.u_reset)) * (1.0 / cfg.tau)
        s = fire(u - cfg.u_threshold, cfg.surrogate_alpha)
        h = u * (1.0 - (s.detach() if cfg.detach_reset else s))
        outs.append(s)
    return _stack(outs), h


@pytest.mark.parametrize("shape", [(6, 3, 4), (5, 4, 4096)], ids=["small", "chunked"])
@pytest.mark.parametrize("target", ["both", "membrane"])
@pytest.mark.parametrize("carry", [False, True], ids=["rest", "h0"])
@pytest.mark.parametrize("smooth", [False, True], ids=["step", "smooth"])
@pytest.mark.parametrize("detach", [True, False], ids=["detach", "attach"])
def test_multistep_gradient_matches_per_step_graph(detach, smooth, carry, target, shape):
    """Spikes, final membrane and the gradients of x and the carried h0
    equal the per-step graph's bit for bit, for an objective on the spikes
    and the final membrane or on the membrane alone: the BPTT loop keeps
    the graph's op order."""
    if shape[0] == 5:  # backward chunks of 2 steps over T=5, the last one short
        assert nrn._BPTT_CHUNK // np.prod(shape[1:]) == 2
    cfg = LIFConfig(tau=3.0, detach_reset=detach)
    rng = np.random.default_rng(4)
    x = rng.normal(0.9, 1.0, size=shape)
    h0 = rng.normal(0.3, 0.4, size=shape[1:]) if carry else None
    w_s, w_h = Tensor(rng.normal(size=x.shape)), Tensor(rng.normal(size=x.shape[1:]))

    def objective(spikes, membrane):
        on_membrane = tz.reduce_mean(membrane * w_h, (0, 1))
        if target == "membrane":
            return on_membrane
        return tz.reduce_mean(spikes * w_s, (0, 1, 2)) + on_membrane

    xf = Tensor(x, requires_grad=True)
    hf = Tensor(h0, requires_grad=True) if carry else None
    state = LIFState(membrane=hf)
    fused = lif_multistep(state, xf, cfg, smooth=smooth)
    backward(objective(fused, state.membrane))

    steps = [Tensor(x_t, requires_grad=True) for x_t in x]
    hr = Tensor(h0, requires_grad=True) if carry else None
    ref, membrane = _per_step_rollout(steps, hr, cfg, smooth)
    backward(objective(ref, membrane))

    assert np.array_equal(fused.data, ref.data)
    assert np.array_equal(state.membrane.data, membrane.data)
    pairs = [(xf.grad, np.stack([s.grad for s in steps]))]
    if carry:
        pairs.append((hf.grad, hr.grad))
    for got, want in pairs:
        assert np.any(want != 0)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("detach", [True, False])
def test_split_forward_carries_state_and_gradient(detach):
    """Two layer forwards of T/2 steps without a reset between them equal one
    forward of T steps, in the spikes and in the input gradient."""
    cfg = LIFConfig(detach_reset=detach)
    rng = np.random.default_rng(5)
    x = rng.normal(0.9, 1.0, size=(8, 2, 3, 2, 2))
    w = Tensor(rng.normal(size=x.shape))
    ctx = ForwardContext()

    whole = Tensor(x, requires_grad=True)
    one = LIFLayer("lif", cfg).forward(whole, ctx)
    backward(tz.reduce_mean(one * w, (0, 1, 2, 3, 4)))

    halves = [Tensor(x[:4], requires_grad=True), Tensor(x[4:], requires_grad=True)]
    layer = LIFLayer("lif", cfg)
    two = tz.concat([layer.forward(h, ctx) for h in halves], axis=0)
    backward(tz.reduce_mean(two * w, (0, 1, 2, 3, 4)))

    assert layer.state.steps == 8
    assert np.array_equal(one.data, two.data)
    assert np.array_equal(whole.grad, np.concatenate([h.grad for h in halves]))


def test_lif_layer_is_one_node_between_input_and_output():
    x = Tensor(np.random.default_rng(6).normal(size=(4, 2, 3, 5, 5)), requires_grad=True)
    layer = LIFLayer("lif", LIFConfig())
    out = layer.forward(x, ForwardContext())
    assert out.parents == (x,)
    carried = layer.state.membrane
    again = layer.forward(x, ForwardContext())
    assert again.parents == (x, carried) and carried.parents == (out,)


def test_lif_layer_retains_little_beyond_its_output():
    """One forward keeps U, S and the last membrane: 2 + 1/T output bytes."""
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
    assert retained <= 2.5 * out.data.nbytes, (retained, out.data.nbytes)
