"""Attention gates: loop-oracle checks of the three mask computations,
each fused gate node against the composed graph it replaced, binarity
of gated outputs, and plan parsing. The oracles take [T, N, C, H, W]; the
gates run on channels-last [T, N, H, W, C]."""

import numpy as np
import pytest

from orsnn.attention import AttentionPlan, SpatialAttention, make_attention
from orsnn.errors import BuildError, ShapeError
from orsnn.layers import ForwardContext
from orsnn.neuron import LIFConfig
from orsnn.record import SpikeRecord
from orsnn import tensor as tz
from orsnn.tensor import Tensor

import reference
from conftest import nchw, nhwc
from reference import composed_gate


CFG = LIFConfig()


def gate_spike(drive: np.ndarray, cfg: LIFConfig = CFG) -> np.ndarray:
    """Fresh-state spiking step in plain numpy: the gate neuron starts from a
    zero membrane, so U = (drive + u_reset) / tau and it fires when U >= thr."""
    u = (drive.astype(np.float64) + cfg.u_reset) / cfg.tau
    return (u >= cfg.u_threshold).astype(np.float64)


def pooled_gate(flavor: str, extent: int, reduction: int, rng, name="g"):
    """A T or C gate over `extent` time steps or channels, built through
    make_attention as the networks build it."""
    plan = AttentionPlan(flavor, temporal_reduction=reduction, channel_reduction=reduction)
    return make_attention(plan, "promote", name, channels=extent, time_steps=extent,
                          lif_cfg=CFG, rng=rng)


def mlp_rows(rows: np.ndarray, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    hid = np.maximum(rows @ w0.T, 0.0)
    return hid @ w1.T


def temporal_oracle(x: np.ndarray, gate) -> np.ndarray:
    w0 = gate.w0.data.astype(np.float64)
    w1 = gate.w1.data.astype(np.float64)
    avg = x.mean(axis=(2, 3, 4))  # [T, N]
    mx = x.max(axis=(2, 3, 4))
    drive = mlp_rows(avg.T, w0, w1).T + mlp_rows(mx.T, w0, w1).T
    return gate_spike(drive, gate.lif_cfg)


def channel_oracle(x: np.ndarray, gate) -> np.ndarray:
    t, n, c = x.shape[:3]
    w0 = gate.w0.data.astype(np.float64)
    w1 = gate.w1.data.astype(np.float64)
    avg = x.mean(axis=(3, 4)).reshape(t * n, c)
    mx = x.max(axis=(3, 4)).reshape(t * n, c)
    drive = (mlp_rows(avg, w0, w1) + mlp_rows(mx, w0, w1)).reshape(t, n, c)
    return gate_spike(drive, gate.lif_cfg)


def spatial_oracle(x: np.ndarray, gate: SpatialAttention) -> np.ndarray:
    t, n, _, h, w = x.shape
    k = gate.kernel
    pad = (k - 1) // 2
    kern = gate.weight.data.astype(np.float64)
    maps = np.stack([x.max(axis=2), x.mean(axis=2)], axis=2)  # [T, N, 2, H, W]
    padded = np.zeros((t, n, 2, h + 2 * pad, w + 2 * pad))
    padded[:, :, :, pad:pad + h, pad:pad + w] = maps
    drive = np.zeros((t, n, 1, h, w))
    for ti in range(t):
        for ni in range(n):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for c in range(2):
                        for u in range(k):
                            for v in range(k):
                                acc += kern[0, c, u, v] * padded[ti, ni, c, i + u, j + v]
                    drive[ti, ni, 0, i, j] = acc
    return gate_spike(drive, gate.lif_cfg)


def random_activation(shape, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, scale, size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# Mask computations against loop oracles
# ---------------------------------------------------------------------------


class TestTemporal:
    def test_mask_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        gate = pooled_gate("T", 4, 2, rng)
        x = random_activation((4, 2, 3, 5, 5), seed=11)
        mask = gate.apply(Tensor(nhwc(x)), ForwardContext())[1]
        expected = temporal_oracle(x.astype(np.float64), gate)
        assert mask.shape == (4, 2, 1)
        np.testing.assert_array_equal(mask[..., 0].astype(np.float64), expected)

    def test_mask_is_binary_and_not_degenerate(self):
        rng = np.random.default_rng(3)
        gate = pooled_gate("T", 8, 4, rng)
        seen = set()
        for seed in range(6):
            x = random_activation((8, 2, 4, 6, 6), seed=seed, scale=6.0)
            mask = gate.apply(Tensor(nhwc(x)), ForwardContext())[1]
            assert set(np.unique(mask)) <= {0.0, 1.0}
            seen |= set(np.unique(mask).tolist())
        assert seen == {0.0, 1.0}

    def test_time_step_mismatch_raises(self):
        rng = np.random.default_rng(0)
        gate = pooled_gate("T", 4, 2, rng)
        with pytest.raises(ShapeError, match="built for T=4"):
            gate.forward(Tensor(nhwc(random_activation((3, 2, 3, 5, 5), 0))), ForwardContext())

    def test_rank_mismatch_raises(self):
        rng = np.random.default_rng(0)
        gate = pooled_gate("T", 4, 2, rng)
        with pytest.raises(ShapeError, match="expects"):
            gate.forward(Tensor(np.zeros((4, 2, 3, 5), dtype=np.float32)), ForwardContext())


class TestChannel:
    def test_mask_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        gate = pooled_gate("C", 8, 4, rng)
        x = random_activation((3, 2, 8, 4, 4), seed=23)
        mask = gate.apply(Tensor(nhwc(x)), ForwardContext())[1]
        expected = channel_oracle(x.astype(np.float64), gate)
        assert mask.shape == (3, 2, 8)
        np.testing.assert_array_equal(mask.astype(np.float64), expected)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(0)
        gate = pooled_gate("C", 8, 4, rng)
        with pytest.raises(ShapeError, match="built for C=8"):
            gate.forward(Tensor(nhwc(random_activation((3, 2, 4, 4, 4), 0))), ForwardContext())


class TestSpatial:
    def test_mask_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        gate = SpatialAttention("g", "promote", kernel=3, lif_cfg=CFG, rng=rng)
        x = random_activation((2, 2, 3, 5, 5), seed=31)
        mask = nchw(gate.apply(Tensor(nhwc(x)), ForwardContext())[1])
        expected = spatial_oracle(x.astype(np.float64), gate)
        assert mask.shape == (2, 2, 1, 5, 5)
        np.testing.assert_array_equal(mask.astype(np.float64), expected)

    def test_even_or_nonpositive_kernel_rejected(self):
        rng = np.random.default_rng(0)
        for kernel in (4, 0, -3):
            with pytest.raises(BuildError, match="odd"):
                SpatialAttention("g", "promote", kernel=kernel, lif_cfg=CFG, rng=rng)


# ---------------------------------------------------------------------------
# Gated outputs stay binary on binary activations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flavor", ["T", "C", "S"])
def test_gated_binary_input_stays_binary(flavor):
    rng = np.random.default_rng(41)
    plan = AttentionPlan(flavor=flavor, temporal_reduction=2, channel_reduction=2,
                         spatial_kernel=3)
    gate = make_attention(plan, "promote", "g", channels=4, time_steps=4,
                          lif_cfg=CFG, rng=rng)
    spikes = (np.random.default_rng(43).random((4, 2, 4, 5, 5)) < 0.5)
    x = Tensor(nhwc(spikes.astype(np.float32)))
    out, mask = gate.apply(x, ForwardContext())
    assert set(np.unique(out.data)) <= {0.0, 1.0}
    mask = nchw(mask) if mask.ndim == 5 else mask
    view = mask.reshape(mask.shape + (1,) * (5 - mask.ndim))
    np.testing.assert_array_equal(nchw(out.data), spikes * view)


@pytest.mark.parametrize("flavor", ["T", "C", "S"])
def test_gate_gradients_reach_parameters(flavor):
    rng = np.random.default_rng(47)
    plan = AttentionPlan(flavor=flavor, temporal_reduction=2, channel_reduction=2,
                         spatial_kernel=3)
    gate = make_attention(plan, "promote", "g", channels=4, time_steps=4,
                          lif_cfg=CFG, rng=rng)
    x = Tensor(nhwc(random_activation((4, 2, 4, 5, 5), seed=53)), requires_grad=True)
    out = gate.forward(x, ForwardContext())
    loss = reference.reduce_mean(out, tuple(range(out.ndim)))
    tz.backward(loss)
    assert x.grad is not None and np.any(x.grad != 0)
    for name, param in gate.named_params():
        assert param.grad is not None, name
        assert np.any(param.grad != 0), name


# ---------------------------------------------------------------------------
# Each fused gate node against the composed graph
# ---------------------------------------------------------------------------

# (init and input seed, activation scale, open-fraction band): the activation
# is N(0, 1) * scale, and the drive scales with it, so a small scale keeps
# every mask bit closed and a large one opens about half of them. Spikes
# are binary at density 1/2, with the mask open or not. An S gate's drive
# sums k*k taps of each pooled map, so its scales are per kernel.
OPENNESS = {"closed": (0, 0.01, (0.0, 0.0)),
            "partly_open": (1, 1.0, (0.05, 0.3)),
            "half_open": (0, 10.0, (0.3, 0.6)),
            "spikes": (2, None, (0.0, 1.0))}
S_OPENNESS = {3: {"partly_open": (0, 2.0, (0.05, 0.3))},
              7: {"partly_open": (1, 2.0, (0.05, 0.3)), "half_open": (1, 5.0, (0.3, 0.6))}}
# train-conv's two gate shapes, train-longT's, and for S an H != W one
GATE_SHAPES = [(8, 32, 8, 8, 16), (8, 32, 4, 4, 32), (32, 8, 4, 4, 8)]
GATES = [pytest.param(flavor, kernel, shape, id=f"{flavor}{kernel or ''}-"
                                                f"{'x'.join(map(str, shape))}")
         for flavor, kernel in (("T", None), ("C", None), ("S", 3), ("S", 7))
         for shape in GATE_SHAPES + ([(2, 3, 5, 7, 4)] if kernel else [])]


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_frozen"])
@pytest.mark.parametrize("inputs", sorted(OPENNESS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("flavor,kernel,shape", GATES)
def test_fused_gate_is_bit_identical_to_the_composed_graph(flavor, kernel, shape, dtype,
                                                           inputs, x_grad):
    """Output, mask, x.grad and every parameter's gradient equal, byte for
    byte, those of the generic-op graph of reference.composed_gate. A frozen
    x leaves the parameters' gradients alone to compare. Gates are built in
    float32; a float64 case casts their parameters."""
    seed, scale, (lo, hi) = S_OPENNESS.get(kernel, {}).get(inputs, OPENNESS[inputs])
    t, n, _, _, c = shape
    rng = np.random.default_rng(seed + 100)
    if scale is None:
        x_data = (rng.random(shape) < 0.5).astype(dtype)
    else:
        x_data = (rng.normal(size=shape) * scale).astype(dtype)
    g_out = np.random.default_rng(seed + 200).normal(size=shape).astype(dtype)
    results = []
    for fused in (True, False):
        plan = AttentionPlan(flavor=flavor, spatial_kernel=kernel or 7)
        gate = make_attention(plan, "MA", "g", channels=c, time_steps=t, lif_cfg=CFG,
                              rng=np.random.default_rng(seed))
        x = Tensor(x_data.copy(), requires_grad=x_grad)
        params = [p for _, p in gate.named_params()]
        for p in params:
            p.data = p.data.astype(dtype)
        if fused:
            out, mask = gate.apply(x, ForwardContext())
            assert out.parents == (x, *params)
        else:
            out, mask = composed_gate(gate, x)
            mask = mask.data.reshape(mask.shape if kernel else (t, n, -1))
        tz.backward(out, seed=g_out)
        results.append((out.data, mask, x.grad, *(p.grad for p in params)))
    assert lo <= results[0][1].mean() <= hi
    names = ["out", "mask", "x.grad"] + [name for name, _ in gate.named_params()]
    for what, got, want in zip(names, *results, strict=True):
        if what == "x.grad" and not x_grad:
            assert got is None and want is None
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.tobytes() == want.tobytes(), what


# ---------------------------------------------------------------------------
# Hidden-width reduction rules
# ---------------------------------------------------------------------------


class TestReduction:
    def test_reduction_larger_than_extent_clamps_to_one(self):
        rng = np.random.default_rng(0)
        gate = pooled_gate("T", 6, 8, rng)
        assert gate.w0.shape == (1, 6)
        assert gate.w1.shape == (6, 1)

    def test_nondividing_reduction_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BuildError, match="temporal reduction 4 must divide 6"):
            pooled_gate("T", 6, 4, rng)
        with pytest.raises(BuildError, match="channel reduction 3 must divide 8"):
            pooled_gate("C", 8, 3, rng)

    def test_dividing_reduction_sets_hidden_width(self):
        rng = np.random.default_rng(0)
        gate = pooled_gate("C", 16, 4, rng)
        assert gate.w0.shape == (4, 16)
        assert gate.w1.shape == (16, 4)

    def test_reduction_below_one_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BuildError, match="temporal reduction must be >= 1"):
            pooled_gate("T", 4, 0, rng)

    @pytest.mark.parametrize("flavor", ["T", "C"])
    def test_extent_below_one_rejected(self, flavor):
        with pytest.raises(BuildError, match=f"{flavor} must be >= 1, got 0"):
            pooled_gate(flavor, 0, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestPlan:
    def test_parse_render_round_trip(self):
        for text in ("T/a", "T/b", "C/c", "S/d"):
            plan = AttentionPlan.parse(text)
            assert plan.render() == text

    def test_parse_is_case_insensitive_and_defaults_placement(self):
        plan = AttentionPlan.parse("t")
        assert plan.flavor == "T"
        assert plan.placement == "b"
        assert AttentionPlan.parse("c/D").render() == "C/d"

    def test_parse_none_and_empty_return_no_plan(self):
        assert AttentionPlan.parse("none") is None
        assert AttentionPlan.parse("NONE") is None
        assert AttentionPlan.parse("  ") is None

    def test_parse_carries_reduction_settings(self):
        plan = AttentionPlan.parse("T/a", temporal_reduction=2,
                                   channel_reduction=8, spatial_kernel=5)
        assert plan.temporal_reduction == 2
        assert plan.channel_reduction == 8
        assert plan.spatial_kernel == 5

    def test_unknown_flavor_rejected(self):
        with pytest.raises(BuildError, match="flavor"):
            AttentionPlan.parse("Q/a")

    def test_unknown_placement_rejected(self):
        with pytest.raises(BuildError, match="placement"):
            AttentionPlan.parse("T/e")

    def test_make_attention_dispatches_on_flavor(self):
        rng = np.random.default_rng(0)
        for flavor in ("T", "C", "S"):
            plan = AttentionPlan(flavor=flavor, temporal_reduction=2,
                                 channel_reduction=2, spatial_kernel=3)
            gate = make_attention(plan, "inhibit", "blk.ia", channels=4,
                                  time_steps=4, lif_cfg=CFG, rng=rng)
            assert isinstance(gate, SpatialAttention) == (flavor == "S")
            assert getattr(gate, "letter", "S") == flavor
            assert gate.role == "inhibit"
            assert gate.name == "blk.ia"


# ---------------------------------------------------------------------------
# Instrumentation hooks
# ---------------------------------------------------------------------------


def test_gate_records_spikes_and_arithmetic():
    rng = np.random.default_rng(67)
    gate = pooled_gate("C", 4, 2, rng, name="blk.ma1")
    record = SpikeRecord(samples=2, time_steps=3)
    ctx = ForwardContext(record=record)
    x = Tensor(nhwc(random_activation((3, 2, 4, 4, 4), seed=71)))
    out = gate.forward(x, ctx)
    assert "blk.ma1.gate" in record.layers
    assert "blk.ma1" in record.layers
    assert "blk.ma1.pool" in record.layers
    gate_stats = record.layers["blk.ma1.gate"]
    mask = gate.apply(x, ForwardContext())[1]
    assert gate_stats.out_spikes == pytest.approx(float(mask.sum()))
    # the pool reads x; the MLP reads the [T, N, C] mean descriptor
    assert record.layers["blk.ma1.pool"].in_total == x.data.size
    assert record.layers["blk.ma1"].in_total == 3 * 2 * 4
    assert out.shape == x.shape
