"""Network assembly: canonical architectures, naming, determinism,
graph lifetime and state carry-over, input validation, and the
spike-drivenness audit."""

import gc
import tracemalloc

import numpy as np
import pytest

import orsnn.tensor as tz
from orsnn.attention import AttentionGate, AttentionPlan
from orsnn.errors import AuditError, BuildError, ShapeError
from orsnn.layers import (
    AdaptiveAvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    LIFLayer,
    MaxPoolLayer,
)
from orsnn.network import Network, build_network, encode_static, frames_to_input
from orsnn.record import SpikeRecord
from orsnn.residual import JoinMode, ResidualBlock, audit_spike_drivenness
from orsnn.tensor import Tensor, backward

# Reference stacks: a static-image classifier (single-stride encoder stack,
# three downsampling residual blocks) and an event-camera variant with a
# strided wide-kernel encoder plus max pooling.
STATIC_ARCH = (
    "c64k3s1p1-BN-LIF-{c64k3s1p1-BN-LIF}*4-(OR-SEW Block(c128))-"
    "(OR-SEW Block(c256))-(OR-SEW Block(c512))-AP-FC10"
)
EVENT_ARCH = (
    "c64k7s2p3-BN-LIF-MPk3s2p1-{c64k3s1p1-BN-LIF}*4-(OR-SEW Block(c128))-"
    "(OR-SEW Block(c256))-(OR-SEW Block(c512))-AP-FC11"
)
SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"


def binary_batch(shape, seed, p=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < p).astype(np.float32)


def push_beta(net: Network, suffixes, value=5.0):
    """Drive selected batch-norm shifts high so the following neurons fire."""
    for name, param in net.named_params():
        if any(name.endswith(s) for s in suffixes):
            param.data[...] = value


class TestCanonicalArchs:
    def test_static_arch_counts_21_arithmetic_layers(self):
        net = build_network(STATIC_ARCH, time_steps=2, in_channels=1)
        arith = [m for m in net.walk() if isinstance(m, (ConvLayer, DenseLayer))]
        assert len(arith) == 21
        blocks = net.blocks()
        assert [b.channels for b in blocks] == [128, 256, 512]
        assert all(isinstance(b, ResidualBlock) for b in blocks)
        assert isinstance(net.nodes[-2], GlobalAvgPoolLayer)
        assert isinstance(net.nodes[-1], DenseLayer)
        assert net.nodes[-1].out_features == 10
        assert net.class_count == 10

    def test_static_arch_encoder_is_marked(self):
        net = build_network(STATIC_ARCH, time_steps=2, in_channels=1)
        enc = net.nodes[0]
        assert isinstance(enc, ConvLayer)
        assert enc.name == "encoder"
        assert enc.is_encoder
        others = [m for m in net.walk()
                  if isinstance(m, ConvLayer) and m.name != "encoder"]
        assert others and not any(m.is_encoder for m in others)

    def test_static_arch_forward_shape(self):
        net = build_network(STATIC_ARCH, time_steps=2, in_channels=1)
        x = binary_batch((2, 1, 1, 16, 16), seed=5)
        logits = net.forward(x)
        assert logits.shape == (1, 10)
        assert np.all(np.isfinite(logits.data))

    def test_event_arch_prefix_and_head(self):
        net = build_network(EVENT_ARCH, time_steps=2, in_channels=2)
        assert isinstance(net.nodes[0], ConvLayer)
        assert (net.nodes[0].kernel, net.nodes[0].stride, net.nodes[0].padding) == (7, 2, 3)
        assert net.nodes[0].in_channels == 2
        assert isinstance(net.nodes[1], BatchNormLayer)
        assert isinstance(net.nodes[2], LIFLayer)
        assert isinstance(net.nodes[3], MaxPoolLayer)
        assert net.class_count == 11

    def test_adaptive_pool_front_end(self):
        net = build_network("AdaptiveAP(8)-c8k3s2p1-BN-LIF-AP-FC3",
                            time_steps=2, in_channels=2)
        assert isinstance(net.nodes[0], AdaptiveAvgPoolLayer)
        logits = net.forward(binary_batch((2, 2, 2, 19, 19), seed=9))
        assert logits.shape == (2, 3)


class TestNaming:
    def test_walk_names_are_unique(self):
        net = build_network(STATIC_ARCH, time_steps=2, in_channels=1)
        names = [m.name for m in net.walk()]
        assert len(names) == len(set(names))
        params = [n for n, _ in net.named_params()]
        assert len(params) == len(set(params))

    def test_names_are_stable_across_builds(self):
        a = build_network(SMALL, time_steps=2, in_channels=1, seed=0)
        b = build_network(SMALL, time_steps=2, in_channels=1, seed=99)
        assert [m.name for m in a.walk()] == [m.name for m in b.walk()]
        assert [n for n, _ in a.named_params()] == [n for n, _ in b.named_params()]

    def test_arch_string_is_canonicalized(self):
        net = build_network("{c8k3s1p0-BN-LIF}*1-AP-FC2", time_steps=2, in_channels=1)
        assert net.arch_string == "c8k3s1-BN-LIF-AP-FC2"


class TestDeterminism:
    def test_same_seed_same_parameters_same_logits(self):
        x = binary_batch((4, 2, 1, 12, 12), seed=3)
        a = build_network(SMALL, time_steps=4, in_channels=1, seed=7)
        b = build_network(SMALL, time_steps=4, in_channels=1, seed=7)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()
        la = a.forward(x)
        lb = b.forward(x)
        assert la.data.tobytes() == lb.data.tobytes()

    def test_repeat_forward_is_bit_identical(self):
        x = binary_batch((4, 2, 1, 12, 12), seed=4)
        net = build_network(SMALL, time_steps=4, in_channels=1, seed=7)
        first = net.forward(x).data.tobytes()
        second = net.forward(x).data.tobytes()
        assert first == second

    def test_different_seeds_differ(self):
        a = build_network(SMALL, time_steps=2, in_channels=1, seed=0)
        b = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        wa = dict(a.named_params())["encoder.weight"].data
        wb = dict(b.named_params())["encoder.weight"].data
        assert not np.array_equal(wa, wb)


class TestGraphs:
    def test_grad_mode_forwards_keep_only_the_last_graph(self):
        """A dropped output frees its graph by reference counting alone; only
        the LIF state holds the last forward's graph until the next reset."""
        net = build_network(SMALL, time_steps=4, in_channels=2, seed=0)
        x = binary_batch((4, 8, 2, 16, 16), seed=5)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.forward(x, training=True)
            one = tracemalloc.get_traced_memory()[0] - before
            for _ in range(9):
                net.forward(x, training=True)
            ten = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert one > 0
        assert ten <= 1.5 * one, (ten, one)

    def test_split_forwards_match_one_forward_of_twice_the_steps(self):
        """Two forwards of T steps without a reset and one backward through
        both give the inputs the gradient of one forward of 2T steps, bit
        for bit: the second graph reaches the first through the carried
        membranes."""
        steps, batch = 2, 3
        rng = np.random.default_rng(8)
        x = binary_batch((2 * steps, batch, 1, 8, 8), seed=8)
        w = Tensor(rng.normal(size=(batch, 4)).astype(np.float32))
        split = build_network(SMALL, time_steps=steps, in_channels=1, seed=0)
        whole = build_network(SMALL, time_steps=2 * steps, in_channels=1, seed=0)
        for net in (split, whole):
            push_beta(net, (".beta",), 0.8)

        halves = [Tensor(x[:steps], requires_grad=True),
                  Tensor(x[steps:], requires_grad=True)]
        first = split.forward(halves[0])
        second = split.forward(halves[1], reset=False)
        backward(tz.reduce_mean(first * w, (0, 1))
                 + tz.reduce_mean(second * w, (0, 1)))

        xw = Tensor(x, requires_grad=True)
        logits = whole.forward(xw)  # the mean over 2T is half the sum of the halves' means
        backward(tz.reduce_mean(logits * (w * 2.0), (0, 1)))

        assert np.array_equal(first.data + second.data, 2.0 * logits.data)
        got = np.concatenate([h.grad for h in halves])
        assert np.any(halves[0].grad != 0)
        assert np.array_equal(got, xw.grad)


def test_quiescent_input_yields_zero_logits():
    net = build_network(SMALL, time_steps=3, in_channels=1)
    logits = net.forward(np.zeros((3, 2, 1, 12, 12), dtype=np.float32))
    np.testing.assert_array_equal(logits.data, 0.0)


class TestInputValidation:
    def test_rank_must_be_five(self):
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(ShapeError, match=r"\[T, N, C, H, W\]"):
            net.forward(np.zeros((2, 1, 12, 12), dtype=np.float32))

    def test_time_steps_must_match(self):
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(ShapeError, match="built for T=2"):
            net.forward(np.zeros((3, 1, 1, 12, 12), dtype=np.float32))

    def test_channels_must_match(self):
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(ShapeError, match="input channels"):
            net.forward(np.zeros((2, 1, 3, 12, 12), dtype=np.float32))


class TestBuildErrors:
    def test_attention_requires_or_join(self):
        with pytest.raises(BuildError, match="requires the OR join"):
            build_network(SMALL, join=JoinMode.ADD,
                          attention=AttentionPlan("T", "b"),
                          time_steps=2, in_channels=1)

    def test_bn_before_conv_reports_offset(self):
        with pytest.raises(BuildError, match=r"BN before any convolution \(token at byte offset 0\)"):
            build_network("BN-c8k3s1-AP-FC2", time_steps=2, in_channels=1)

    def test_fc_requires_ap(self):
        with pytest.raises(BuildError, match="FC requires a preceding AP"):
            build_network("c8k3s1p1-BN-LIF-FC10", time_steps=2, in_channels=1)

    def test_only_fc_may_follow_ap(self):
        with pytest.raises(BuildError, match="only FC may follow AP"):
            build_network("c8k3s1p1-AP-BN-FC2", time_steps=2, in_channels=1)

    def test_nothing_follows_the_head(self):
        with pytest.raises(BuildError, match="no tokens may follow the FC head"):
            build_network("c8k3s1p1-AP-FC2-BN", time_steps=2, in_channels=1)

    def test_head_is_mandatory(self):
        with pytest.raises(BuildError, match="must end in an FC head"):
            build_network("c8k3s1p1-BN-LIF", time_steps=2, in_channels=1)

    def test_block_before_conv_rejected(self):
        with pytest.raises(BuildError, match="residual block before any convolution"):
            build_network("(OR-SEW Block(c8))-AP-FC2", time_steps=2, in_channels=1)

    def test_standalone_gate_requires_plan(self):
        with pytest.raises(BuildError, match="requires an attention plan"):
            build_network("c8k3s1p1-BN-MA-LIF-AP-FC2", time_steps=2, in_channels=1)

    def test_time_steps_must_be_positive(self):
        with pytest.raises(BuildError, match="time_steps"):
            build_network(SMALL, time_steps=0, in_channels=1)


def test_standalone_gate_builds_with_plan():
    plan = AttentionPlan("T", "b", temporal_reduction=2)
    net = build_network("c8k3s1p1-BN-MA-LIF-AP-FC2", attention=plan,
                        time_steps=4, in_channels=1)
    gates = [m for m in net.walk() if isinstance(m, AttentionGate)
             and m.name.startswith("gate")]
    assert len(gates) == 1
    assert gates[0].role == "MA"
    logits = net.forward(binary_batch((4, 2, 1, 10, 10), seed=13))
    assert logits.shape == (2, 2)


class TestAudit:
    def test_or_join_network_is_fully_spike_driven(self):
        net = build_network(SMALL, time_steps=3, in_channels=1, seed=11)
        push_beta(net, (".bn2.beta", ".bn4.beta"))
        batch = binary_batch((3, 4, 1, 12, 12), seed=17)
        report = audit_spike_drivenness(net, batch, mode="strict")
        assert report.fully_spike_driven
        text = report.render_text()
        assert "PASS: fully spike-driven outside the encoder" in text
        by_name = {e.name: e for e in report.entries}
        assert by_name["encoder"].klass == "MAC"
        assert by_name["encoder"].is_encoder
        for e in report.feature_entries:
            if not e.is_encoder:
                assert e.klass == "AC", e.name
        # the block was genuinely active, not vacuously binary
        assert by_name["block1.conv3"].input_rate > 0

    def test_add_join_flags_exactly_first_conv_after_each_join(self):
        arch = ("c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c16))-"
                "AP-FC4")
        net = build_network(arch, join=JoinMode.ADD, time_steps=3,
                            in_channels=1, seed=11)
        # make both join operands fire everywhere so the sum reaches 2
        push_beta(net, (".bn2.beta", ".shortcut_bn.beta"))
        batch = binary_batch((3, 4, 1, 12, 12), seed=19)
        report = audit_spike_drivenness(net, batch, mode="permissive")
        assert not report.fully_spike_driven
        flagged = sorted(v.name for v in report.violations)
        assert flagged == ["block1.conv3", "block2.conv3"]
        assert "FAIL: non-binary inputs at" in report.render_text()

    def test_strict_mode_raises_on_violation(self):
        arch = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"
        net = build_network(arch, join=JoinMode.ADD, time_steps=3,
                            in_channels=1, seed=11)
        push_beta(net, (".bn2.beta", ".shortcut_bn.beta"))
        batch = binary_batch((3, 4, 1, 12, 12), seed=19)
        with pytest.raises(AuditError, match="block1.conv3"):
            audit_spike_drivenness(net, batch, mode="strict")

    def test_unknown_mode_rejected(self):
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(ValueError, match="audit mode"):
            audit_spike_drivenness(net, binary_batch((2, 1, 1, 12, 12), 0),
                                   mode="loose")

    def test_average_pool_is_transparent_to_the_audit(self):
        net = build_network(SMALL, time_steps=3, in_channels=1, seed=11)
        push_beta(net, (".bn2.beta", ".bn4.beta"))
        batch = binary_batch((3, 4, 1, 12, 12), seed=17)
        rec = SpikeRecord()
        net.forward(batch, record=rec)
        fc = rec.layers["fc"]
        assert fc.binary_input  # audited against the pre-pool spike map
        assert fc.input_rate > 0
        report = audit_spike_drivenness(net, batch, mode="strict")
        assert {e.name: e.klass for e in report.entries}["fc"] == "AC"


class TestEncoding:
    def test_encode_static_replicates_over_time(self):
        imgs = np.random.default_rng(0).random((3, 1, 4, 4)).astype(np.float32)
        enc = encode_static(imgs, 5)
        assert enc.shape == (5, 3, 1, 4, 4)
        for t in range(5):
            np.testing.assert_array_equal(enc[t], imgs)

    def test_encode_static_validates(self):
        with pytest.raises(ShapeError):
            encode_static(np.zeros((1, 4, 4)), 2)
        with pytest.raises(ShapeError):
            encode_static(np.zeros((1, 1, 4, 4)), 0)

    def test_frames_to_input_transposes(self):
        frames = np.random.default_rng(0).random((3, 4, 2, 5, 5)).astype(np.float32)
        x = frames_to_input(frames)
        assert x.shape == (4, 3, 2, 5, 5)
        np.testing.assert_array_equal(x[1, 2], frames[2, 1])
        assert x.flags["C_CONTIGUOUS"]

    def test_frames_to_input_validates(self):
        with pytest.raises(ShapeError):
            frames_to_input(np.zeros((3, 2, 5, 5)))
