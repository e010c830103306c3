"""Residual joins and block assembly: elementwise truth tables, gradient
flow through the arithmetic join forms, the spike types of joins,
layout fixtures for every gate placement, and prune semantics.
"""

import copy

import numpy as np
import pytest

import orsnn.tensor as tz
from orsnn.attention import AttentionPlan
from orsnn.errors import BuildError, EngineError, ShapeError
from orsnn.layers import ForwardContext
from orsnn.network import build_network
from orsnn.neuron import LIFConfig
from orsnn.record import SpikeRecord, instrumented_pass
from orsnn.residual import JoinMode, build_block, join
from orsnn.tensor import Tensor

import reference
from conftest import gradcheck, nchw, nhwc

BITS = [0.0, 1.0]


def scalar_join(a, b, mode):
    out = join(Tensor(np.array([a])), Tensor(np.array([b])), mode)
    return float(out.data[0])


def test_or_truth_table():
    expect = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
    for (a, b), want in expect.items():
        assert scalar_join(a, b, JoinMode.OR) == want


def test_and_truth_table():
    expect = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    for (a, b), want in expect.items():
        assert scalar_join(a, b, JoinMode.AND) == want


def test_iand_truth_table():
    expect = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0}
    for (a, b), want in expect.items():
        assert scalar_join(a, b, JoinMode.IAND) == want


def test_add_accumulates_beyond_binary():
    assert scalar_join(1, 1, JoinMode.ADD) == 2.0


def test_join_parse():
    assert JoinMode.parse(" or ") is JoinMode.OR
    assert JoinMode.parse("IAND") is JoinMode.IAND
    with pytest.raises(BuildError):
        JoinMode.parse("XOR")


@pytest.mark.parametrize("mode", list(JoinMode))
@pytest.mark.parametrize("seed", range(2))
def test_join_gradients_through_arithmetic_form(mode, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 0.9, size=(3, 4))
    b = rng.uniform(0.1, 0.9, size=(3, 4))
    gradcheck(lambda x, y: reference.reduce_mean(join(x, y, mode), (0, 1)), a, b)


def test_or_join_gradient_values():
    a = Tensor(np.array([0.25]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    out = join(a, b, JoinMode.OR)
    tz.backward(out, seed=np.ones(1))
    # d/da [(a+b) - a*b] = 1 - b; d/db = 1 - a
    assert np.allclose(a.grad, [0.5])
    assert np.allclose(b.grad, [0.75])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_or_join_matches_the_arithmetic_form_on_binary_operands(dtype):
    """The one-node OR join gives the output and gradients of the composed
    (x + y) - x*y graph, bit for bit, on spike operands."""
    rng = np.random.default_rng(13)
    a, b = ((rng.random((4, 3, 5, 5, 8)) < 0.5).astype(dtype) for _ in range(2))
    g = rng.normal(size=a.shape).astype(dtype)
    results = []
    for fused in (True, False):
        x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = join(x, y, JoinMode.OR) if fused else tz.sub(tz.add(x, y), tz.mul(x, y))
        if fused:
            assert out.parents == (x, y)
        tz.backward(out, seed=g)
        results.append((out.data, x.grad, y.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_join_shape_mismatch():
    with pytest.raises(ShapeError):
        join(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))), JoinMode.OR)


TWO_BLOCKS = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c16))-AP-FC4"


def test_only_a_bitwise_join_of_spikes_is_typed_binary():
    """Both join operands are spikes by construction, so OR, AND and IAND
    type the post-join conv binary and ADD types it real, naming the join;
    a pruned block hands on its backbone's spikes."""
    for mode in JoinMode:
        net = build_network(TWO_BLOCKS, join=mode, time_steps=2, in_channels=1)
        types = {name: o.source for name, o in net.layer_ops(12, 12).items()}
        assert types["encoder"] == "network input"
        real = {name: src for name, src in types.items() if src is not None}
        if mode is JoinMode.ADD:
            assert real == {"encoder": "network input",
                            "block1.conv3": "block1 ADD join",
                            "block2.conv3": "block2 ADD join"}
            net.blocks()[1].prune()
            assert net.layer_ops(12, 12)["block2.conv3"].source is None
        else:
            assert list(real) == ["encoder"], mode


# ---------------------------------------------------------------------------
# Block assembly


def make_block(join_mode=JoinMode.OR, in_channels=4, channels=8, plan=None,
               t=4, seed=0, name="block"):
    return build_block(in_channels, channels, join_mode, plan, LIFConfig(), t,
                       rng=np.random.default_rng(seed), name=name)


def spikes(shape, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.float32)


def run_block(block, x, training=False, record=None):
    """Forward [T, N, C, H, W] spikes through a block, which runs on
    channels-last data; the output comes back as [T, N, C, H, W]."""
    x = nhwc(x)
    ctx = ForwardContext(training=training, record=record)
    return Tensor(nchw(block.forward(Tensor(x), ctx).data))


def test_or_block_layout_without_attention():
    block = make_block()
    assert reference.render_layout(block) == (
        "c8k3s2p1-BN-LIF-c8k3s1p1-BN-LIF | c8k1s2-BN-LIF | "
        "c8k3s1p1-BN-LIF-c8k3s1p1-BN-LIF")


@pytest.mark.parametrize("placement,backbone_ma,post_ma", [
    ("a", ("c8k3s2p1-BN-MA-LIF", "c8k3s1p1-BN-LIF"),
          ("c8k3s1p1-BN-MA-LIF", "c8k3s1p1-BN-LIF")),
    ("b", ("c8k3s2p1-BN-LIF", "c8k3s1p1-BN-MA-LIF"),
          ("c8k3s1p1-BN-LIF", "c8k3s1p1-BN-MA-LIF")),
    ("c", ("c8k3s2p1-BN-MA-LIF", "c8k3s1p1-BN-LIF"),
          ("c8k3s1p1-BN-LIF", "c8k3s1p1-BN-LIF")),
    ("d", ("c8k3s2p1-BN-LIF", "c8k3s1p1-BN-MA-LIF"),
          ("c8k3s1p1-BN-LIF", "c8k3s1p1-BN-LIF")),
])
def test_gate_placements_a_to_d(placement, backbone_ma, post_ma):
    plan = AttentionPlan.parse(f"T/{placement}")
    block = make_block(plan=plan)
    expect = (f"{'-'.join(backbone_ma)} | c8k1s2-BN-IA-LIF | "
              f"{'-'.join(post_ma)}")
    assert reference.render_layout(block) == expect


def test_spatial_flavor_is_inhibitory_only():
    block = make_block(plan=AttentionPlan.parse("S/b"))
    assert reference.render_layout(block) == (
        "c8k3s2p1-BN-LIF-c8k3s1p1-BN-LIF | c8k1s2-BN-IA-LIF | "
        "c8k3s1p1-BN-LIF-c8k3s1p1-BN-LIF")


def test_spatial_placements_build_the_same_network():
    """S builds only the shortcut's IA gate, so its placement selects
    nothing: S/a and S/b give the same parameter names and bytes."""
    nets = [build_network(TWO_BLOCKS, attention=AttentionPlan.parse(f"S/{place}"),
                          time_steps=2, in_channels=1, seed=5) for place in "ab"]
    a, b = ([(name, p.data.tobytes()) for name, p in net.named_params()] for net in nets)
    assert a == b
    assert any(name.endswith(".ia.weight") for name, _ in a)


def test_build_rejects_bad_configurations():
    for mode in (JoinMode.ADD, JoinMode.AND, JoinMode.IAND):
        with pytest.raises(BuildError, match="requires the OR join"):
            make_block(join_mode=mode, plan=AttentionPlan.parse("T/b"))
    with pytest.raises(BuildError, match="channels must be positive"):
        make_block(channels=0)


def test_or_block_output_is_binary_and_active():
    block = make_block()
    x = spikes((4, 2, 4, 10, 10))
    out = run_block(block, x, training=True)
    assert set(np.unique(out.data)).issubset({0.0, 1.0})
    assert out.data.sum() > 0
    assert out.shape == (4, 2, 8, 5, 5)


def test_block_forward_is_deterministic():
    block = make_block()
    x = spikes((4, 2, 4, 10, 10), seed=1)
    a = run_block(block, x).data
    b = run_block(block, x).data
    assert np.array_equal(a, b)


def _silence_shortcut(block):
    bn = block.shortcut[1]
    bn.gamma.data[:] = 0.0
    bn.beta.data[:] = -5.0


def test_silent_shortcut_prunes_bit_identically():
    block = make_block(seed=3)
    _silence_shortcut(block)
    pruned = copy.deepcopy(block)
    pruned.prune()
    assert reference.render_layout(pruned).split(" | ")[1] == "pruned"
    for seed in range(5):
        x = spikes((4, 2, 4, 10, 10), seed=seed)
        rec = SpikeRecord()
        base = run_block(block, x, record=rec).data
        slim = run_block(pruned, x).data
        assert np.array_equal(base, slim)
        assert rec.layers[block.shortcut_lif_name].out_spikes == 0


def test_pruned_block_drops_shortcut_parameters():
    block = make_block()
    full = {n for n, _ in block.named_params()}
    block.prune()
    slim = {n for n, _ in block.named_params()}
    dropped = full - slim
    assert dropped == {"block.shortcut_conv.weight", "block.shortcut_bn.gamma",
                       "block.shortcut_bn.beta"}


def test_prune_refuses_nonabsorbing_joins():
    for mode in (JoinMode.AND, JoinMode.IAND):
        block = make_block(join_mode=mode)
        with pytest.raises(BuildError):
            block.prune()


def test_add_join_block_prunes():
    block = make_block(join_mode=JoinMode.ADD)
    block.prune()
    assert block.pruned


def test_a_typed_binary_layer_reading_a_real_value_is_an_engine_error():
    """A shortcut whose neuron put out 0.5 would make the OR join real
    where its type says spikes: the instrumented pass refuses that as an
    engine bug rather than classing the post-join conv by it."""
    net = build_network(TWO_BLOCKS, time_steps=2, in_channels=1)
    x = spikes((2, 3, 1, 12, 12), seed=4)
    instrumented_pass(net, x)
    lif = net.blocks()[0].shortcut[-1]
    lif.forward = lambda x, ctx, owned=False: Tensor(np.full(x.shape, 0.5, dtype=x.data.dtype))
    with pytest.raises(EngineError, match="block1.conv3 is typed binary"):
        instrumented_pass(net, x)


def test_shortcut_firing_recorded_per_layer():
    block = make_block(seed=11)
    x = spikes((4, 3, 4, 10, 10), seed=2)
    rec = SpikeRecord()
    rec.samples += 3
    rec.time_steps = 4
    run_block(block, x, record=rec)
    name = block.shortcut_lif_name
    assert name == "block.shortcut_lif"
    rates = rec.firing_rates()
    assert name in rates and 0.0 <= rates[name] <= 1.0
    assert "block.lif1" in rates
