"""Network assembly: canonical architectures, naming, determinism,
graph lifetime, forwards independent of what ran before them, input
validation, and the spike-drivenness audit."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import orsnn.tensor as tz
from orsnn.attention import AttentionGate, AttentionPlan
from orsnn.data import synth_events
from orsnn.errors import BuildError, EngineError, ShapeError
from orsnn.layers import (
    AdaptiveAvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    ForwardContext,
    GlobalAvgPoolLayer,
    LIFLayer,
    MaxPoolLayer,
    forward_chain,
)
from orsnn.network import Network, build_network, frames_to_input
from orsnn.record import SpikeRecord, instrumented_pass
from orsnn.residual import JoinMode, ResidualBlock, audit_spike_drivenness
from orsnn.tensor import Tensor, backward
from orsnn.training import TrainConfig, train

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
TWO_BLOCKS = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c16))-AP-FC4"


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
        ops = net.layer_ops(28, 28)
        assert [o.name for o in ops.values() if o.is_encoder] == ["encoder"]
        assert len(ops) == 21

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
    def test_a_dropped_grad_mode_forward_keeps_nothing(self):
        """A dropped output frees its whole graph by reference counting
        alone: no membrane outlives its forward to pin the graph. A few KB
        per forward stay in numpy's and the interpreter's small-object
        caches, which fill up; a membrane node carried to the next forward
        kept 0.999x of the graph."""
        net = build_network(SMALL, time_steps=4, in_channels=2, seed=0)
        x = binary_batch((4, 8, 2, 16, 16), seed=5)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = net.forward(x, training=True)
            graph = tracemalloc.get_traced_memory()[0] - before
            del out
            one = tracemalloc.get_traced_memory()[0] - before
            for _ in range(9):
                net.forward(x, training=True)
            ten = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert graph > 0
        assert one <= 0.01 * graph, (one, graph)
        assert ten <= 0.05 * graph, (ten, graph)

    def test_a_layer_called_directly_keeps_its_output_and_a_chain_releases_it(self):
        """forward_chain releases each activation it produced once the
        module it feeds has returned, but not its own input; a layer called
        on its own leaves its output as it is."""
        rng = np.random.default_rng(3)
        conv, bn = ConvLayer("conv", 2, 4, 3, 1, 1, rng=rng), BatchNormLayer("bn", 4)
        ctx = ForwardContext(training=True)
        leaf = Tensor(rng.normal(size=(2, 3, 5, 5, 2)).astype(np.float32), requires_grad=True)
        x = tz.mul(leaf, Tensor(np.asarray(1.0, np.float32)))
        y = conv.forward(x, ctx)
        bn.forward(y, ctx)
        assert np.isfinite(y.data).all()
        out = forward_chain(x, [conv, bn], ctx)
        inner = out.parents[0]
        assert inner.shape == y.shape and np.isnan(inner.data).all()
        assert np.isfinite(x.data).all()
        backward(out, seed=np.ones(out.shape, np.float32))
        assert np.isfinite(leaf.grad).all() and np.any(leaf.grad != 0)

    def test_a_no_grad_forward_frees_each_activation_after_its_consumer(self, monkeypatch):
        """With no graph, nothing captures an activation, so it goes as soon
        as the module it feeds has returned, unless a caller holds it: when
        block1.conv4 runs, of the conv inputs only the block's own input,
        which both paths read, is alive; the transposed network input and
        the join output are gone."""
        net = build_network(SMALL, time_steps=2, in_channels=2, seed=0)
        inputs, alive = {}, set()
        original = ConvLayer.forward

        def forward(layer, x, ctx):
            if layer.name == "block1.conv4":
                alive.update(name for name, ref in inputs.items() if ref() is not None)
            inputs[layer.name] = weakref.ref(x.data)
            return original(layer, x, ctx)

        monkeypatch.setattr(ConvLayer, "forward", forward)
        with tz.no_grad():
            net.forward(binary_batch((2, 3, 2, 8, 8), seed=0))
        assert "block1.conv3" in inputs
        assert alive == {"block1.conv1", "block1.shortcut_conv"}

    @pytest.mark.parametrize("make,shape", [
        (lambda rng: ConvLayer("conv", 3, 4, 3, 2, 1, rng=rng), (2, 3, 7, 7, 3)),
        (lambda rng: BatchNormLayer("bn", 3), (2, 3, 7, 7, 3)),
        (lambda rng: MaxPoolLayer("mp", 3, 2, 1), (2, 3, 7, 7, 3)),
        (lambda rng: AdaptiveAvgPoolLayer("ap", 2), (2, 3, 7, 7, 3)),
        (lambda rng: GlobalAvgPoolLayer("gap"), (2, 3, 7, 7, 3)),
        (lambda rng: DenseLayer("fc", 5, 4, rng=rng), (2, 3, 5)),
    ], ids=["conv", "bn", "maxpool", "adaptive-pool", "global-pool", "fc"])
    def test_each_layer_forward_adds_one_node(self, make, shape):
        """The [T, N] fold happens inside the layer's op: its output's first
        parent is the layer input itself, and backward reaches it."""
        rng = np.random.default_rng(2)
        layer = make(rng)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        out = layer.forward(x, ForwardContext(training=True))
        assert out.shape[:2] == shape[:2]
        assert out.parents[0] is x
        assert all(not p.parents for p in out.parents)
        backward(out, seed=np.ones(out.shape, np.float32))
        assert x.grad.shape == x.shape


@pytest.mark.parametrize("join,plan", [("OR", "T/a"), ("OR", "C/a"), ("OR", "S/a"),
                                       ("OR", "none"), ("ADD", "none"), ("IAND", "none")])
def test_a_forward_does_not_depend_on_what_ran_before_it(join, plan):
    """Every forward starts each neuron from rest: forward(b) after
    forward(a) gives the logits, parameter gradients and SpikeRecord of
    forward(b) on a freshly built net, bit for bit, in grad and no-grad
    mode."""
    def net():
        built = build_network(SMALL, JoinMode.parse(join), AttentionPlan.parse(plan),
                              time_steps=4, in_channels=2, seed=0)
        push_beta(built, (".beta",), 0.8)
        return built

    a, b = (binary_batch((4, 3, 2, 12, 12), seed=s) for s in (11, 12))
    y = np.array([0, 1, 2])

    def step(model):
        logits = model.forward(b, training=True)
        backward(tz.softmax_cross_entropy(logits, y))
        return logits.data, [(n, p.grad) for n, p in model.named_params()]

    used, fresh = net(), net()
    first = instrumented_pass(used, a)
    assert first.spike_total() > first.layers["lif1"].out_spikes > 0  # past the encoder too
    assert used.forward(a, training=True).backward_fn is not None
    (got, got_grads), (want, want_grads) = step(used), step(fresh)
    assert np.array_equal(got, want)
    for (name, grad), (_, expected) in zip(got_grads, want_grads, strict=True):
        assert np.array_equal(grad, expected), name

    used, fresh = net(), net()
    with tz.no_grad():
        used.forward(a)
        assert np.array_equal(used.forward(b).data, fresh.forward(b).data)
    assert instrumented_pass(used, b) == instrumented_pass(fresh, b)
    instrumented_pass(used, a)
    assert instrumented_pass(used, b) == instrumented_pass(fresh, b)


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

    def test_a_batch_of_no_sample_is_refused(self):
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(ShapeError, match=r"with N >= 1, got \(2, 0, 1, 12, 12\)"):
            net.forward(np.zeros((2, 0, 1, 12, 12), dtype=np.float32))

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_a_tensor_input_is_refused(self, requires_grad):
        """The input is an array: a Tensor fails typed, never differentiated."""
        net = build_network(SMALL, time_steps=2, in_channels=1)
        x = Tensor(binary_batch((2, 3, 1, 12, 12), seed=0), requires_grad=requires_grad)
        with pytest.raises(ShapeError, match=r"\[T, N, C, H, W\]"):
            net.forward(x, training=True)


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

    def test_max_pool_padding_must_be_below_its_window(self):
        """A window of padding alone would put out -inf into the next
        neuron; below that, every window holds an input element, so a max
        pool of spikes is spikes."""
        arch = "c8k3s1p1-BN-LIF-MPk2s2p2-c8k3s1p1-BN-LIF-AP-FC4"
        with pytest.raises(BuildError, match=r"padding 2 must be below its window 2 "
                                             r"\(token at byte offset 16\)"):
            build_network(arch, time_steps=2, in_channels=1)
        net = build_network(arch.replace("p2", "p1"), time_steps=2, in_channels=1)
        assert net.layer_ops(12, 12)["conv1"].source is None
        instrumented_pass(net, binary_batch((2, 3, 1, 12, 12), seed=5))


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
        report = audit_spike_drivenness(net, batch)
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
        report = audit_spike_drivenness(net, batch)
        assert not report.fully_spike_driven
        flagged = sorted(v.name for v in report.violations)
        assert flagged == ["block1.conv3", "block2.conv3"]
        assert "FAIL: non-binary inputs at" in report.render_text()

    def test_add_join_fails_at_the_first_conv_after_each_join_on_any_input(self):
        """The ADD join's type is real whatever its operands fired: on an
        all-zero batch, where nothing past the encoder fires, and at init.
        The verdict names each join; a pruned block's join is gone."""
        net = build_network(TWO_BLOCKS, join=JoinMode.ADD, time_steps=3,
                            in_channels=1, seed=11)
        for batch in (np.zeros((3, 4, 1, 12, 12), np.float32),
                      binary_batch((3, 4, 1, 12, 12), seed=19)):
            report = audit_spike_drivenness(net, batch)
            assert sorted(v.name for v in report.violations) == [
                "block1.conv3", "block2.conv3"]
            assert report.render_text().endswith(
                "FAIL: non-binary inputs at block1.conv3 (block1 ADD join), "
                "block2.conv3 (block2 ADD join)")
        net.blocks()[1].prune()
        report = audit_spike_drivenness(net, np.zeros((3, 4, 1, 12, 12)))
        assert [v.name for v in report.violations] == ["block1.conv3"]

    @pytest.mark.parametrize("join,plan", [
        (JoinMode.OR, "none"), (JoinMode.OR, "T/a"), (JoinMode.OR, "C/a"),
        (JoinMode.OR, "S/a"), (JoinMode.AND, "none"), (JoinMode.IAND, "none")])
    def test_joins_of_spikes_pass_at_init_after_training_and_pruned(self, join, plan):
        """OR, AND and IAND networks, gated or not, are AC past the encoder
        by construction. Each audit's instrumented pass checks every input
        typed binary against the values it read: at init, after two epochs,
        and (OR) with a pruned shortcut."""
        x, y = synth_events("two-class-motion", 16, 3, 12, 12, seed=1).xy()
        net = build_network(TWO_BLOCKS, join=join, attention=AttentionPlan.parse(plan),
                             time_steps=3, in_channels=2, seed=11)
        push_beta(net, (".beta",), 1.5)

        def audit():
            report = audit_spike_drivenness(net, net.to_input(x))
            assert [e.name for e in report.feature_entries if e.klass == "MAC"] == [
                "encoder"]
            return {e.name: e.input_rate for e in report.entries}

        rates = audit()
        assert rates["block1.conv3"] > 0 and rates["block2.conv3"] > 0  # joins fired
        train(net, (x, y), TrainConfig(lr=0.01, time_steps=3, batch_size=8, epochs=2))
        audit()
        if join is JoinMode.OR:
            net.blocks()[0].prune()
            audit()

    def test_an_audit_over_no_sample_is_refused(self):
        """Zero batches classify nothing, so they cannot read as a PASS."""
        net = build_network(SMALL, time_steps=2, in_channels=1)
        with pytest.raises(EngineError, match="at least one sample"):
            audit_spike_drivenness(net, [])

    def test_average_pool_is_transparent_to_the_audit(self):
        net = build_network(SMALL, time_steps=3, in_channels=1, seed=11)
        push_beta(net, (".bn2.beta", ".bn4.beta"))
        batch = binary_batch((3, 4, 1, 12, 12), seed=17)
        rec = SpikeRecord()
        net.forward(batch, record=rec)
        assert net.layer_ops(12, 12)["fc"].source is None  # typed by the pre-pool spike map
        assert rec.layers["fc"].input_rate > 0
        report = audit_spike_drivenness(net, batch)
        assert {e.name: e.klass for e in report.entries}["fc"] == "AC"

    @pytest.mark.parametrize("arch,fc_class", [
        ("c8k3s1p1-BN-LIF-AP-FC4", "AC"),
        ("c8k3s1p1-BN-LIF-c8k3s1p1-BN-AP-FC4", "MAC"),
    ])
    def test_fc_is_audited_on_the_map_entering_the_pool(self, arch, fc_class):
        """Spikes entering the pool make the head AC although the pooled
        features are fractions; BN output entering it makes the head MAC."""
        net = build_network(arch, time_steps=3, in_channels=1, seed=11)
        push_beta(net, (".bn1.beta",))
        report = audit_spike_drivenness(
            net, binary_batch((3, 4, 1, 12, 12), seed=17))
        by_name = {e.name: e for e in report.entries}
        assert by_name["fc"].klass == fc_class
        assert by_name["fc"].input_rate > 0
        assert all(e.klass == "AC" for e in report.feature_entries
                   if e.name not in ("encoder", "fc"))


class TestBlocks:
    @pytest.mark.parametrize("join,plan", [(mode, "none") for mode in JoinMode] +
                             [(JoinMode.OR, "T/a")])
    def test_every_block_downsamples_with_a_spiking_projection_shortcut(
            self, join, plan):
        net = build_network(
            "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c32))-AP-FC4",
            join=join, attention=AttentionPlan.parse(plan),
            time_steps=4, in_channels=2, seed=0)
        blocks = net.blocks()
        assert [b.name for b in blocks] == ["block1", "block2"]
        for block in blocks:
            conv1, shortcut_conv = block.backbone[0], block.shortcut[0]
            assert conv1.name == f"{block.name}.conv1" and conv1.stride == 2
            assert shortcut_conv.name == f"{block.name}.shortcut_conv"
            assert (shortcut_conv.kernel, shortcut_conv.stride) == (1, 2)
            assert isinstance(block.shortcut[-1], LIFLayer)
            assert block.shortcut_lif_name == f"{block.name}.shortcut_lif"
        assert net.shortcut_lif_names() == ["block1.shortcut_lif", "block2.shortcut_lif"]


class TestLayout:
    """[T, N, C, H, W] at the boundary, channels-last [T, N, H, W, C] inside."""

    def test_boundaries_take_and_give_channels_first(self):
        frames = binary_batch((3, 2, 2, 5, 7), seed=2)  # [N, T, C, H, W]
        x = frames_to_input(frames)
        assert x.shape == (2, 3, 2, 5, 7)
        net = build_network("c4k3s1p1-BN-LIF-AP-FC3", time_steps=2, in_channels=2, seed=0)
        assert net.to_input(frames[:, 0]).shape == (2, 3, 2, 5, 7)
        assert net.forward(x).shape == (3, 3)
        with pytest.raises(ShapeError, match="2 input channels, got 5"):
            net.forward(np.ascontiguousarray(x.transpose(0, 1, 3, 4, 2)))

    def test_every_stage_output_is_c_contiguous_channels_last(self, monkeypatch):
        net = build_network(
            "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c32))-AP-FC4",
            attention=AttentionPlan.parse("T/a"), time_steps=4, in_channels=2, seed=0)
        seen = []
        for cls in (ConvLayer, BatchNormLayer, LIFLayer):
            def forward(layer, x, ctx, original=cls.forward):
                out = original(layer, x, ctx)
                seen.append((layer, x.shape, out.data))
                return out
            monkeypatch.setattr(cls, "forward", forward)
        net.forward(binary_batch((4, 3, 2, 16, 12), seed=1), training=True)
        stages = [m for m in net.walk() if isinstance(m, (ConvLayer, BatchNormLayer, LIFLayer))]
        assert len(seen) == len(stages) == 33
        for layer, (_, _, h, w, c), out in seen:
            assert out.flags.c_contiguous, layer.name
            if isinstance(layer, ConvLayer):
                assert c == layer.in_channels, layer.name
                oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
                ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
                assert out.shape == (4, 3, oh, ow, layer.out_channels), layer.name
            else:
                assert out.shape == (4, 3, h, w, c), layer.name
                if isinstance(layer, BatchNormLayer):
                    assert c == layer.channels, layer.name


class TestEncoding:
    def test_to_input_views_a_static_batch_over_time(self):
        net = build_network(SMALL, time_steps=5, in_channels=1, seed=0)
        imgs = np.random.default_rng(0).random((3, 1, 4, 4)).astype(np.float32)
        enc = net.to_input(imgs)
        assert enc.shape == (5, 3, 1, 4, 4)
        for t in range(5):
            np.testing.assert_array_equal(enc[t], imgs)
        # a view, not a T-fold copy
        assert np.shares_memory(enc, imgs) and enc.strides[0] == 0

    def test_to_input_shares_memory_with_its_batch(self):
        net = build_network(SMALL, time_steps=4, in_channels=1, seed=0)
        rng = np.random.default_rng(0)
        images = rng.integers(0, 3, size=(3, 1, 5, 5), dtype=np.uint8)
        frames = rng.integers(0, 3, size=(3, 4, 1, 5, 5), dtype=np.uint8)
        for batch in (images, frames):
            x = net.to_input(batch)
            assert x.dtype == np.uint8 and np.shares_memory(x, batch)

    def test_forward_makes_the_one_copy_into_the_first_layer(self, monkeypatch):
        """The encoder reads a fresh C-contiguous channels-last array in the
        network's dtype, copied straight from the stored uint8 frames."""
        net = build_network(SMALL, time_steps=4, in_channels=1, seed=0)
        frames = np.random.default_rng(1).integers(0, 3, size=(3, 4, 1, 6, 6),
                                                   dtype=np.uint8)
        seen = []
        original = ConvLayer.forward

        def forward(layer, x, ctx):
            seen.append(x.data)
            return original(layer, x, ctx)
        monkeypatch.setattr(ConvLayer, "forward", forward)
        net.forward(net.to_input(frames), training=True)
        entry = seen[0]
        assert entry.dtype == np.float32 and entry.flags.c_contiguous
        assert entry.base is None and not np.shares_memory(entry, frames)
        np.testing.assert_array_equal(entry, frames.transpose(1, 0, 3, 4, 2))

    def test_to_input_takes_framed_batches_at_the_networks_t(self):
        net = build_network(SMALL, time_steps=4, in_channels=1, seed=0)
        frames = np.random.default_rng(0).random((3, 4, 1, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(net.to_input(frames), frames_to_input(frames))
        with pytest.raises(ShapeError, match=r"^framed batch has T=2, network built for T=4$"):
            net.to_input(frames[:, :2])
        with pytest.raises(ShapeError):
            net.to_input(np.zeros((1, 4, 4)))

    def test_frames_to_input_transposes(self):
        frames = np.random.default_rng(0).random((3, 4, 2, 5, 5)).astype(np.float32)
        x = frames_to_input(frames)
        assert x.shape == (4, 3, 2, 5, 5)
        np.testing.assert_array_equal(x[1, 2], frames[2, 1])
        assert np.shares_memory(x, frames) and x.base is frames

    def test_frames_to_input_validates(self):
        with pytest.raises(ShapeError):
            frames_to_input(np.zeros((3, 2, 5, 5)))
