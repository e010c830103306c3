"""No-grad passes compute in the activations their chain owns: BN, the
gates, LIF and the OR join write their outputs into their input's buffer
when layers.forward_chain or ResidualBlock._joined hands that input over,
and every result equals the allocating path's byte for byte. Nothing else
is written: a layer called directly, a grad-mode pass and the caller's
network input keep their bytes."""

import numpy as np
import pytest

import orsnn.attention as attention
import orsnn.neuron as neuron
import orsnn.residual as residual
import orsnn.tensor as tz
from orsnn.attention import AttentionGate, AttentionPlan, make_attention
from orsnn.layers import BatchNormLayer, ForwardContext, LIFLayer
from orsnn.metrics import estimate_energy
from orsnn.network import build_network
from orsnn.neuron import LIFConfig
from orsnn.record import instrumented_pass
from orsnn.residual import JoinMode, audit_spike_drivenness, join
from orsnn.tensor import Tensor, no_grad

ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"
CASES = [("OR", "T/a"), ("OR", "C/a"), ("OR", "S/a"), ("OR", "none"),
         ("ADD", "none"), ("IAND", "none")]
IDS = [f"{j}-{p}" for j, p in CASES]


def network(join_mode: str, plan: str, in_channels: int = 2, arch: str = ARCH):
    net = build_network(arch, JoinMode.parse(join_mode), AttentionPlan.parse(plan),
                        time_steps=4, in_channels=in_channels, seed=0)
    for name, p in net.named_params():  # spikes on both paths of the block
        if name.endswith(".beta"):
            p.data[...] = 0.8
    return net


def batch(seed: int, channels: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((4, 3, channels, 12, 12)) < 0.5).astype(np.float32)


def spy(monkeypatch) -> list:
    """Record every BN, LIF and gate forward and every join as (name,
    owned, input arrays, their bytes on entry, output array)."""
    calls = []
    for cls in (BatchNormLayer, LIFLayer, AttentionGate):
        def forward(layer, x, ctx, owned=False, original=cls.forward):
            before = x.data.tobytes()
            out = original(layer, x, ctx, owned)
            calls.append((layer.name, owned, (x.data,), (before,), out.data))
            return out
        monkeypatch.setattr(cls, "forward", forward)
    original_join = residual.join

    def spy_join(x, y, mode, *, name="join", owned=False):
        before = (x.data.tobytes(), y.data.tobytes())
        out = original_join(x, y, mode, name=name, owned=owned)
        calls.append((name, owned, (x.data, y.data), before, out.data))
        return out
    monkeypatch.setattr(residual, "join", spy_join)
    return calls


def allocate_always(monkeypatch) -> None:
    """The allocating path: no op may write into its input."""
    for module in (tz, neuron, attention, residual):
        monkeypatch.setattr(module, "overwrites", lambda *args: False)


@pytest.mark.parametrize("join_mode,plan", CASES, ids=IDS)
def test_a_no_grad_chain_computes_in_each_owned_activation(join_mode, plan, monkeypatch):
    """Every BN, gate and LIF sits after its chain's first module, and the
    join's operands come from the block's two chains, so all of them are
    owned. BN, the gates, LIF and the OR join put out their input's buffer;
    the ADD and IAND joins allocate."""
    net = network(join_mode, plan)
    calls = spy(monkeypatch)
    with no_grad():
        net.forward(batch(1))
    assert sorted(name for name, *_ in calls) == sorted(
        [m.name for m in net.walk() if isinstance(m, (BatchNormLayer, LIFLayer, AttentionGate))]
        + ["block1.join"])
    for name, owned, inputs, _, out in calls:
        assert owned, name
        shares = np.shares_memory(out, inputs[0])
        assert shares == (not name.endswith(".join") or join_mode == "OR"), name


@pytest.mark.parametrize("join_mode,plan", CASES, ids=IDS)
@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
def test_a_grad_mode_pass_writes_no_input(join_mode, plan, training, monkeypatch):
    """Recording ops keep their inputs for backward, owned or not: every
    input to BN, LIF, a gate or the join keeps its bytes through the whole
    forward and backward."""
    net = network(join_mode, plan)
    calls = spy(monkeypatch)
    logits = net.forward(batch(2), training=training)
    tz.backward(tz.softmax_cross_entropy(logits, np.array([0, 1, 2])))
    assert calls
    for name, owned, inputs, before, out in calls:
        assert owned, name
        assert not any(np.shares_memory(out, a) for a in inputs), name
        assert tuple(a.tobytes() for a in inputs) == before, name


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("arch", [ARCH, "LIF-" + ARCH], ids=["conv-first", "lif-first"])
def test_the_callers_network_input_is_never_written(arch, channels):
    """With one float32 channel the channels-last entry is a view of the
    caller's batch, not a copy. The chain does not own its input, so the
    batch keeps its bytes through plain and instrumented passes, also when
    the first module is a LIF, which would fire in an owned input."""
    net = network("OR", "T/a", in_channels=channels, arch=arch)
    x = batch(3, channels)
    before = x.tobytes()
    entry = np.ascontiguousarray(x.transpose(0, 1, 3, 4, 2), dtype=np.float32)
    assert np.shares_memory(entry, x) == (channels == 1)
    with no_grad():
        net.forward(x)
    instrumented_pass(net, x)
    audit_spike_drivenness(net, x)
    assert x.tobytes() == before


def ops(rng, dtype, param_dtype):
    """(name, function of (x, owned) -> output Tensor) of each op that may
    compute in place, over [4, 3, 5, 5, 6] inputs, with parameters built in
    float32 and cast to param_dtype."""
    cfg = LIFConfig()
    bn = BatchNormLayer("bn", 6)
    bn.gamma.data = rng.uniform(0.5, 2.0, 6).astype(param_dtype)
    bn.beta.data = rng.normal(0.5, 1.0, 6).astype(param_dtype)
    gates = {flavor: make_attention(AttentionPlan(flavor, temporal_reduction=2,
                                                  channel_reduction=2, spatial_kernel=3),
                                    "MA", flavor, 6, 4, cfg, rng=rng)
             for flavor in ("T", "C", "S")}
    for gate in gates.values():
        for _, p in gate.named_params():
            p.data = p.data.astype(param_dtype)
    other = (rng.random((4, 3, 5, 5, 6)) < 0.5).astype(dtype)

    def layer(mod, training=False):
        return lambda x, owned: mod.forward(x, ForwardContext(training=training), owned)

    return [("bn-eval", layer(bn)), ("bn-training", layer(bn, training=True)),
            ("lif", layer(LIFLayer("lif", cfg))),
            *((f"gate-{f}", layer(g)) for f, g in gates.items()),
            ("or-join", lambda x, owned: join(x, Tensor(other.copy(), requires_grad=True),
                                              JoinMode.OR, owned=owned))]


@pytest.mark.parametrize("dtype,param_dtype", [(np.float32, np.float32),
                                               (np.float64, np.float64),
                                               (np.float32, np.float64)],
                         ids=["float32", "float64", "mixed"])
def test_each_op_computes_in_place_only_when_owned_and_not_recording(dtype, param_dtype):
    """Called directly (owned=False), in grad mode, or with an output dtype
    other than the input's, an op allocates and leaves its input's bytes;
    owned under no_grad, it puts out its input's buffer. The output bytes
    are the same in every mode."""
    rng = np.random.default_rng(5)
    shape = (4, 3, 5, 5, 6)  # the shape ops() builds for
    data = {"binary": (rng.random(shape) < 0.5).astype(dtype),
            "real": rng.normal(0.8, 1.0, shape).astype(dtype)}
    for name, op in ops(rng, dtype, param_dtype):
        for kind, x0 in data.items():
            outputs = set()
            for grad in (True, False):
                for owned in (False, True):
                    x = Tensor(x0.copy(), requires_grad=True)
                    if grad:
                        out = op(x, owned)
                    else:
                        with no_grad():
                            out = op(x, owned)
                    outputs.add((out.dtype, out.data.tobytes()))
                    in_place = owned and not grad and (
                        dtype == param_dtype or name in ("lif", "or-join"))
                    where = (name, kind, grad, owned)
                    assert np.shares_memory(out.data, x.data) == in_place, where
                    assert in_place or x.data.tobytes() == x0.tobytes(), where
            assert len(outputs) == 1, (name, kind)


@pytest.mark.parametrize("join_mode,plan", CASES, ids=IDS)
def test_outputs_equal_the_allocating_paths(join_mode, plan, monkeypatch):
    """Logits, the SpikeRecord, the audit's lines and the energy rows of
    no-grad passes equal, byte for byte, those of the same passes with
    every op allocating its output."""
    batches = [batch(4), batch(5)]

    def outputs():
        net = network(join_mode, plan)
        with no_grad():
            logits = [net.forward(b).data.tobytes() for b in batches]
        record = instrumented_pass(net, batches)
        audit = audit_spike_drivenness(net, batches).render_text()
        energy = estimate_energy(net, instrumented_pass(net, batches))
        return logits, record, audit, energy.rows(), energy.render()

    owning = outputs()
    assert owning[1].spike_total() > owning[1].layers["lif1"].out_spikes > 0
    with monkeypatch.context() as patch:
        allocate_always(patch)
        allocating = outputs()
    assert owning == allocating
