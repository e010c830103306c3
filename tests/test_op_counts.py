"""Op counts by construction: Network.layer_ops against the shapes a real
forward produces, the refusal of a record over two input sizes, and the
README's energy comparison at the paper's shapes."""

import re
from pathlib import Path

import numpy as np
import pytest

from orsnn.attention import AttentionGate, AttentionPlan, SpatialAttention
from orsnn.errors import ShapeError
from orsnn.layers import ConvLayer, DenseLayer
from orsnn.metrics import E_AC_PJ, E_MAC_PJ
from orsnn.network import build_network
from orsnn.record import SpikeRecord, instrumented_pass
from orsnn.residual import JoinMode

BODY = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"
STEMS = {"none": BODY, "mp": "MPk3s2p1-" + BODY, "aap": "AdaptiveAP(10)-" + BODY,
         "s2p0": BODY.replace("c8k3s1p1", "c8k3s2", 1)}
PLANS = [None] + [AttentionPlan(f, p, temporal_reduction=2, channel_reduction=4,
                                spatial_kernel=3) for f in "TC" for p in "abcd"] + [
    AttentionPlan("S", p, spatial_kernel=3) for p in "ab"]
CASES = [(JoinMode.OR, plan) for plan in PLANS] + [
    (mode, None) for mode in (JoinMode.ADD, JoinMode.IAND, JoinMode.AND)]


def forward_counts(net, batches):
    """{name: (kind, FLOPs per sample)} of every op-counted layer, in the
    order a recorded forward noted their inputs, from the input and output
    shapes each layer met, by the per-batch formulas the layers once
    applied: a conv's output pixels x k^2 x Cin x Cout, fc's weights, a
    gate's pool 2 per input element, its S transform 2 k^2 per pixel of
    each step and its T or C MLP 4 x hidden per descriptor value."""
    seen = {}

    def wrap(mod):
        forward = mod.forward

        def spy(x, ctx, owned=False):
            out = forward(x, ctx, owned)
            seen.setdefault(mod.name, []).append((x.shape, out.shape))
            return out
        mod.forward = spy

    for mod in net.walk():
        if isinstance(mod, (ConvLayer, DenseLayer, AttentionGate)):
            wrap(mod)
    literals = {}
    note_input = SpikeRecord.note_input

    def spy_note(self, name, literal):
        literals.setdefault(name, []).append(literal.shape)
        note_input(self, name, literal)

    SpikeRecord.note_input = spy_note
    try:
        rec = instrumented_pass(net, batches)
    finally:
        SpikeRecord.note_input = note_input
    mods = {m.name: m for m in net.walk()}
    counts = {}
    for name in literals:
        mod = mods.get(name) or mods[name.removesuffix(".pool")]
        total, kind = 0, None
        for (xs, ys), lit in zip(seen[mod.name], literals[name]):
            if name.endswith(".pool"):
                kind, flops = "attn_pool", 2 * int(np.prod(xs))
            elif isinstance(mod, ConvLayer):
                kind = "conv"
                flops = ys[2] * ys[3] * mod.kernel ** 2 * mod.in_channels * mod.out_channels
                flops *= xs[0] * xs[1]
            elif isinstance(mod, DenseLayer):
                kind, flops = "fc", mod.in_features * mod.out_features * xs[0] * xs[1]
            elif isinstance(mod, SpatialAttention):
                kind, flops = "attn_conv", 2 * mod.kernel ** 2 * int(np.prod(xs[:4]))
            else:
                kind, flops = "attn_fc", 4 * int(np.prod(lit)) * mod.w0.shape[0]
            total += flops
        counts[name] = (kind, total / rec.samples)
    return counts, rec


@pytest.mark.parametrize("mode,plan", CASES,
                         ids=[f"{m.value}-{p.render() if p else 'none'}" for m, p in CASES])
def test_static_counts_equal_those_of_a_forward(mode, plan):
    """For both stems, a stride-2 p0 encoder, unpruned and pruned blocks and
    odd, non-square inputs, the walk names the layers a forward records,
    in its order, with the kind and FLOPs per sample the forward's shapes
    give."""
    rng = np.random.default_rng(7)
    for stem, arch in STEMS.items():
        for pruned in (False, True) if mode in (JoinMode.OR, JoinMode.ADD) else (False,):
            net = build_network(arch, join=mode, attention=plan, time_steps=4,
                                in_channels=2, seed=3)
            if pruned:
                net.blocks()[0].prune()
            for h, w in ((17, 13), (16, 16)):
                batches = [(rng.random((4, n, 2, h, w)) > 0.6).astype(np.float32)
                           for n in (2, 3)]
                counts, rec = forward_counts(net, batches)
                ops = net.layer_ops(h, w)
                where = f"{stem} pruned={pruned} {h}x{w}"
                assert rec.size == (h, w)
                assert list(ops) == list(counts), where
                assert {n: (o.kind, o.flops_per_sample) for n, o in ops.items()} == counts, where
                assert [n for n, o in ops.items() if o.is_encoder] == ["encoder"], where


def test_a_record_over_two_input_sizes_is_refused():
    net = build_network(BODY, time_steps=2, in_channels=1, seed=0)
    a = np.ones((2, 1, 1, 12, 12), dtype=np.float32)
    b = np.ones((2, 1, 1, 13, 12), dtype=np.float32)
    with pytest.raises(ShapeError, match=r"record holds \(12, 12\) inputs, batch is \(13, 12\)"):
        instrumented_pass(net, [a, b])
    rec = instrumented_pass(net, [a, a])
    assert (rec.samples, rec.size) == (2, (12, 12))


@pytest.mark.parametrize("arch,size,match", [
    (STEMS["s2p0"], (2, 5), "window 3 at stride 2, padding 0 has no output"),
    (BODY.replace("c8k3s1p1", "c8k3s0p1", 1), (8, 8), "k=3 stride=0 padding=1"),
    ("MPk3s0-" + BODY, (8, 8), "k=3 stride=0 padding=0")])
def test_an_input_too_small_for_a_window_is_refused_statically_too(arch, size, match):
    """Extents come from one rule (tensor.out_extent), so the walk refuses
    an input size or a window geometry the forward refuses, rather than
    count nothing or divide by a zero stride."""
    net = build_network(arch, time_steps=2, in_channels=1, seed=0)
    with pytest.raises(ShapeError, match=match):
        net.layer_ops(*size)
    with pytest.raises(ShapeError, match=match):
        net.forward(np.ones((2, 1, 1, *size), dtype=np.float32))


PAPER_ARCH = ("c64k3s1p1-BN-LIF-{c64k3s1p1-BN-LIF}*4-(OR-SEW Block(c128))-"
              "(OR-SEW Block(c256))-(OR-SEW Block(c512))-AP-FC10")


def paper_table(rates=(0.05, 0.1, 0.2)) -> list[str]:
    """README's rows: per uniform input rate of every AC layer, each join's
    MAC and AC ops (millions) and energy (uJ) per 28x28 sample at T=16,
    and the ADD-to-OR energy ratio, from the static walk alone."""
    ops = {mode: build_network(PAPER_ARCH, join=mode, time_steps=16,
                               in_channels=1).layer_ops(28, 28).values()
           for mode in (JoinMode.OR, JoinMode.ADD)}
    rows = []
    for rate in rates:
        cells, energy = [f"{rate:g}"], []
        for layers in ops.values():
            mac = sum(o.flops_per_sample for o in layers if o.klass == "MAC")
            ac = rate * sum(o.flops_per_sample for o in layers if o.klass == "AC")
            energy.append((E_MAC_PJ * mac + E_AC_PJ * ac) / 1e6)
            cells += [f"{mac / 1e6:.1f}", f"{ac / 1e6:.1f}", f"{energy[-1]:.1f}"]
        rows.append("| " + " | ".join(cells + [f"{energy[1] / energy[0]:.1f}×"]) + " |")
    return rows


def test_readme_energy_table_at_the_paper_shapes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| 0\.\d+ \|.*$", readme, flags=re.M)
    assert table == paper_table()
