"""End-to-end acceptance gates for the engine.

Each test covers one release criterion, enforces its wall-clock budget,
and prints exactly one [PASS]/[FAIL] (or [SKIP]) line. Heavier gates
train real (small) models; their seeds and hyperparameters were frozen
after verifying comfortable margins.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import orsnn.tensor as tz
import reference
from conftest import (FakeWalk, distinct_random, gradcheck, lif_reference_trace,
                      margin_random, nhwc, rated, smooth_spike_fn)
from orsnn.attention import AttentionPlan, make_attention
from orsnn.config import TrainConfig
from orsnn.data import (load_idx_dir, save_idx_images, save_idx_labels, subset,
                        synth_events)
from orsnn.layers import ForwardContext
from orsnn.metrics import (FiringRateTrace, apply_pruning,
                           detect_natural_pruning, estimate_energy)
from orsnn.network import build_network
from orsnn.neuron import LIFConfig, lif_multistep
from orsnn.record import SpikeRecord
from orsnn.residual import JoinMode, audit_spike_drivenness, join
from orsnn.tensor import Tensor
from orsnn.training import TrainingLog, train

FULL_STATIC_ARCH = (
    "c64k3s1p1-BN-LIF-{c64k3s1p1-BN-LIF}*4-(OR-SEW Block(c128))-"
    "(OR-SEW Block(c256))-(OR-SEW Block(c512))-AP-FC10")
SMALL_ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"


def verdict(tag: str, failures: list, started: float, budget: float) -> None:
    """One line per criterion; the assert carries the diagnostics."""
    elapsed = time.time() - started
    ok = not failures and elapsed <= budget
    print(f"[{'PASS' if ok else 'FAIL'}] {tag} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    if not failures and elapsed > budget:
        failures = [f"wall clock {elapsed:.1f}s exceeded {budget:.0f}s"]
    assert ok, f"{tag}: " + "; ".join(str(f) for f in failures)


def test_01_join_algebra_exhaustive():
    """OR/AND/IAND joins equal a logical bit oracle on every pair of
    binary [2,2,2] tensors (all 256 x 256 combinations)."""
    started = time.time()
    failures = []
    patterns = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    patterns = patterns.reshape(256, 2, 2, 2).astype(np.float32)
    x = np.repeat(patterns, 256, axis=0)
    y = np.tile(patterns, (256, 1, 1, 1))
    xb, yb = x.astype(bool), y.astype(bool)
    oracles = {
        JoinMode.OR: (xb | yb),
        JoinMode.AND: (xb & yb),
        JoinMode.IAND: (~xb & yb),
    }
    for mode, expect in oracles.items():
        got = join(Tensor(x), Tensor(y), mode).data
        if not np.array_equal(got, expect.astype(np.float32)):
            bad = int(np.sum(got != expect))
            failures.append(f"{mode.value}: {bad} of {got.size} elements differ")
    verdict("01 join-algebra-oracle (65536 exhaustive pairs)",
            failures, started, budget=1.0)


def test_02_silent_shortcut_prune_equivalence():
    """With the shortcut forced silent, pruned and unpruned networks emit
    bit-identical logits over 1000 random batches."""
    started = time.time()
    failures = []
    net = build_network(SMALL_ARCH, time_steps=2, in_channels=1, seed=0)
    params = dict(net.named_params())
    params["block1.shortcut_bn.gamma"].data[...] = 0.0
    params["block1.shortcut_bn.beta"].data[...] = -5.0
    rng = np.random.default_rng(7)
    verify = (rng.random((2, 4, 1, 10, 10)) < 0.5).astype(np.float32)
    pruned = apply_pruning(net, ["block1.shortcut_lif"], verify)
    for i in range(1000):
        xb = (rng.random((2, 4, 1, 10, 10)) < 0.5).astype(np.float32)
        if net.forward(xb).data.tobytes() != pruned.forward(xb).data.tobytes():
            failures.append(f"batch {i}: logits differ")
            break
    verdict("02 silent-shortcut prune bit-equivalence (1000 batches)",
            failures, started, budget=60.0)


def test_03_spike_drivenness_classification():
    """On the 21-layer static-image architecture: OR joins keep every
    non-encoder conv/fc input binary (all AC) on every batch; swapping in
    ADD joins flags exactly the first conv after each residual join."""
    started = time.time()
    failures = []
    rng = np.random.default_rng(0)
    batches = [(rng.random((2, 2, 1, 28, 28)) < 0.2).astype(np.float32)
               for _ in range(3)]
    expected_flags = ["block1.conv3", "block2.conv3", "block3.conv3"]

    def active_net(mode):
        net = build_network(FULL_STATIC_ARCH, join=mode, time_steps=2,
                            in_channels=1, seed=0)
        # push the join operands' normalization shifts so real spike
        # traffic reaches every join (the verdicts must not be vacuous)
        for name, p in net.named_params():
            if name.endswith((".bn2.beta", ".shortcut_bn.beta")):
                p.data[...] = 5.0
        return net

    or_net = active_net(JoinMode.OR)
    add_net = active_net(JoinMode.ADD)
    for i, batch in enumerate(batches):
        rep = audit_spike_drivenness(or_net, [batch])
        audited = [e for e in rep.entries
                   if e.kind in ("conv", "fc") and e.name != "encoder"]
        if not rep.fully_spike_driven:
            failures.append(f"OR batch {i}: audit reported violations")
        if any(e.klass != "AC" for e in audited):
            failures.append(f"OR batch {i}: non-AC conv/fc layer")
        joins_fed = [e for e in audited if e.name in expected_flags]
        if any(e.input_rate <= 0 for e in joins_fed):
            failures.append(f"OR batch {i}: a join saw no spikes (vacuous)")
        rep = audit_spike_drivenness(add_net, [batch])
        flagged = sorted(e.name for e in rep.violations)
        if flagged != expected_flags:
            failures.append(f"ADD batch {i}: flagged {flagged}, "
                            f"expected {expected_flags}")
    verdict("03 spike-drivenness audit (OR all-AC vs ADD join flags)",
            failures, started, budget=60.0)


def test_04_lif_recurrence_hand_trace():
    """A 10-step single-neuron rollout (tau=2, threshold 1, hard reset to 0)
    matches a hand-computed trace to <= 1e-12 in double precision. All
    chosen currents are dyadic, so the hand values are float64-exact."""
    started = time.time()
    failures = []
    # columns: input current, potential U, spike S, post-reset membrane H
    hand = [
        (2.5, 1.25, 1.0, 0.0),
        (0.5, 0.25, 0.0, 0.25),
        (1.25, 0.75, 0.0, 0.75),
        (3.0, 1.875, 1.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (1.75, 0.875, 0.0, 0.875),
        (2.25, 1.5625, 1.0, 0.0),
        (0.25, 0.125, 0.0, 0.125),
        (0.75, 0.4375, 0.0, 0.4375),
        (5.0, 2.71875, 1.0, 0.0),
    ]
    cfg = LIFConfig()
    currents = np.array([[row[0]] for row in hand], dtype=np.float64)
    for step, (_, _, s_hand, h_hand) in enumerate(hand):
        # the rollout over the first step + 1 currents ends in this step
        s, h = lif_multistep(Tensor(currents[:step + 1]), cfg)
        if abs(float(s.data[step, 0]) - s_hand) > 1e-12:
            failures.append(f"step {step}: spike {float(s.data[step, 0])} != {s_hand}")
        if abs(float(h[0]) - h_hand) > 1e-12:
            failures.append(f"step {step}: membrane {float(h[0])} != {h_hand}")
    ref = lif_reference_trace([row[0] for row in hand], cfg)
    for step, (_, u_hand, s_hand, h_hand) in enumerate(hand):
        for got, want, what in ((ref.potentials[step], u_hand, "potential"),
                                (ref.spikes[step], s_hand, "spike"),
                                (ref.membranes[step], h_hand, "membrane")):
            if abs(got - want) > 1e-12:
                failures.append(f"reference step {step}: {what} {got} != {want}")
    verdict("04 LIF recurrence vs 10-step hand trace (<=1e-12)",
            failures, started, budget=10.0)


def _weighted_scalar(t: Tensor, weights: Tensor) -> Tensor:
    """Non-uniform scalar objective so index mix-ups cannot cancel out."""
    return tz.reduce_mean(tz.mul(t, weights), tuple(range(t.ndim)))


def _gradient_cases():
    """(name, runner) pairs; each runner gradchecks one op for one seed."""

    def case(name, arrays_fn, op, wrt=None):
        def run(rng):
            arrays = arrays_fn(rng)
            with tz.no_grad():
                out_shape = op(*[Tensor(np.asarray(a, dtype=np.float64))
                                 for a in arrays]).shape
            w = Tensor(rng.normal(0.7, 0.9, size=out_shape))
            gradcheck(lambda *ts: _weighted_scalar(op(*ts), w), *arrays, wrt=wrt)
        return name, run

    n = lambda rng, *shape: rng.normal(0.0, 1.0, size=shape)
    running = lambda c: (np.zeros(c), np.ones(c))
    attached = LIFConfig(detach_reset=False)
    cases = [
        case("add-broadcast", lambda r: (n(r, 3, 4), n(r, 4)),
             tz.add),
        case("sub-broadcast", lambda r: (n(r, 2, 3, 2), n(r, 1, 3, 1)),
             tz.sub),
        case("mul", lambda r: (n(r, 3, 4), n(r, 3, 4)),
             tz.mul),
        case("relu", lambda r: (margin_random(r, (3, 4)),), reference.relu),
        case("dense-bias", lambda r: (n(r, 3, 5), n(r, 2, 5), n(r, 2)),
             tz.dense),
        case("conv2d-s1p1", lambda r: (nhwc(n(r, 2, 2, 5, 5)), n(r, 3, 2, 3, 3)),
             lambda x, w: tz.conv2d(x, w, 1, 1)),
        case("dense-time", lambda r: (n(r, 2, 3, 5), n(r, 4, 5), n(r, 4)),
             tz.dense),
        case("conv2d-s2", lambda r: (nhwc(n(r, 1, 2, 6, 6)), n(r, 2, 2, 3, 3)),
             lambda x, w: tz.conv2d(x, w, 2, 0)),
        case("conv2d-time-s2p1", lambda r: (nhwc(n(r, 2, 2, 2, 5, 5)), n(r, 3, 2, 3, 3)),
             lambda x, w: tz.conv2d(x, w, 2, 1)),
        case("max-pool", lambda r: (nhwc(distinct_random(r, (1, 2, 4, 4))),),
             lambda x: tz.max_pool2d(x, 2)),
        case("global-avg-pool", lambda r: (nhwc(n(r, 2, 3, 4, 4)),),
             tz.global_avg_pool),
        case("adaptive-avg-pool", lambda r: (nhwc(n(r, 1, 2, 6, 6)),),
             lambda x: tz.adaptive_avg_pool2d(x, 3)),
        case("batchnorm", lambda r: (nhwc(n(r, 3, 2, 3, 3)), n(r, 2), n(r, 2)),
             lambda x, g, b: tz.batchnorm2d(x, g, b, *running(2), True)),
        case("reshape", lambda r: (n(r, 2, 6),),
             lambda x: reference.reshape(x, (3, 4))),
        case("permute", lambda r: (n(r, 2, 3, 4),),
             lambda x: reference.permute(x, (2, 0, 1))),
        case("lif-multistep-smooth", lambda r: (n(r, 4, 2, 2, 3, 3),),
             lambda x: lif_multistep(x, attached, smooth=True)[0]),
        case("concat", lambda r: (n(r, 2, 2, 3), n(r, 2, 1, 3)),
             lambda a, b: reference.concat([a, b], axis=1)),
        case("reduce-mean", lambda r: (n(r, 2, 3, 4),),
             lambda x: tz.reduce_mean(x, (0, 2), keepdims=True)),
        case("reduce-max", lambda r: (distinct_random(r, (2, 3, 4)),),
             lambda x: reference.reduce_max(x, (1,))),
        case("smooth-spike", lambda r: (n(r, 3, 4),),
             lambda v: smooth_spike_fn(v, 2.0)),
    ]

    def cross_entropy(rng):
        labels = rng.integers(0, 3, size=4)
        gradcheck(lambda t: tz.softmax_cross_entropy(t, labels), n(rng, 4, 3))
    cases.append(("softmax-cross-entropy", cross_entropy))

    def smooth_twin(rng):
        # two spiking stages with the step replaced by its smooth surrogate
        # primitive everywhere, so the whole net is finite-differentiable
        labels = rng.integers(0, 3, size=2)
        cfg = LIFConfig(detach_reset=False)

        def fn(x, w1, w2):
            c = tz.conv2d(x, w1, 1, 1)
            step = reference.reshape(c, (1,) + c.shape)  # the same drive at each of 3 steps
            s, _ = lif_multistep(reference.concat([step] * 3, axis=0), cfg, smooth=True)
            # times 3: the sum over steps
            feats = tz.mul(tz.reduce_mean(tz.global_avg_pool(s), (0,)), Tensor(3.0))
            return tz.softmax_cross_entropy(tz.dense(feats, w2), labels)

        gradcheck(fn, nhwc(0.8 * n(rng, 2, 1, 6, 6)), 0.4 * n(rng, 4, 1, 3, 3),
                  0.5 * n(rng, 3, 4))
    cases.append(("spiking-net-smooth-twin", smooth_twin))
    return cases


def test_05_gradient_suite_vs_finite_differences():
    """Every differentiable op, plus a surrogate-smoothed two-stage spiking
    net, matches central finite differences within 1e-4 relative."""
    started = time.time()
    failures = []
    total = 0
    for idx, (name, run) in enumerate(_gradient_cases()):
        for seed in range(5):
            total += 1
            try:
                run(np.random.default_rng(1000 * idx + seed))
            except AssertionError as err:
                failures.append(f"{name} seed {seed}: {str(err).splitlines()[0]}")
    if total < 100:
        failures.append(f"only {total} gradient cases, need >= 100")
    verdict(f"05 gradient suite vs central differences ({total} cases)",
            failures, started, budget=120.0)


def test_06_energy_oracle():
    """Energy totals match hand-computed MAC/AC sums (4.6/0.9 pJ) to 1e-9
    relative, including the 1e6-FLOP encoder-only case (4.6 uJ)."""
    started = time.time()
    failures = []

    # three layers, two samples: encoder 1000 FLOPs/sample (MAC), one conv
    # at 500 FLOPs/sample with input rate 1/4, one fc at 100 with rate 1/2
    rec = SpikeRecord(samples=2, size=(4, 4))
    rec.note_input("encoder", rated(8, 3))
    rec.note_input("conv1", rated(8, 2))
    rec.note_input("fc", rated(8, 4))
    report = estimate_energy(FakeWalk([("encoder", "conv", "MAC", 1000),
                                       ("conv1", "conv", "AC", 500),
                                       ("fc", "fc", "AC", 100)]), rec)
    expected = 4.6 * 1000 + 0.9 * (500 * 0.25) + 0.9 * (100 * 0.5)
    if not np.isclose(report.energy_pj_per_sample, expected, rtol=1e-9, atol=0):
        failures.append(f"three-layer total {report.energy_pj_per_sample} pJ, "
                        f"hand value {expected} pJ")
    if not np.isclose(report.mac_ops_per_sample, 1000, rtol=1e-9, atol=0):
        failures.append(f"MAC ops {report.mac_ops_per_sample} != 1000")
    if not np.isclose(report.ac_ops_per_sample, 175, rtol=1e-9, atol=0):
        failures.append(f"AC ops {report.ac_ops_per_sample} != 175")

    rec = SpikeRecord(samples=1, size=(4, 4))
    rec.note_input("encoder", rated(4, 2))
    report = estimate_energy(FakeWalk([("encoder", "conv", "MAC", 1_000_000)]), rec)
    if not np.isclose(report.energy_pj_per_sample, 4.6e6, rtol=1e-9, atol=0):
        failures.append(f"encoder-only {report.energy_pj_per_sample} pJ "
                        "!= 4.6e6 pJ")
    if "4.6000 uJ" not in report.render():
        failures.append("encoder-only render does not show 4.6000 uJ")
    verdict("06 energy oracle vs hand-computed MAC/AC sums (1e-9 rel)",
            failures, started, budget=10.0)


def _mnist_dir():
    for cand in (os.environ.get("ORSNN_MNIST_DIR"), "data/mnist"):
        if cand and Path(cand).is_dir():
            return Path(cand)
    return None


def _desk_gate(train_xy, test_xy, arch, classes, *, budget, tag,
               epochs=10, lr=1e-2, time_steps=4, batch_size=64, seed=0):
    started = time.time()
    failures = []
    net = build_network(arch, time_steps=time_steps, in_channels=1, seed=seed)
    cfg = TrainConfig(lr=lr, time_steps=time_steps, batch_size=batch_size,
                      epochs=epochs, seed=seed)
    log = TrainingLog()
    train(net, train_xy, cfg, test_xy, log=log)
    best = max(e.val_acc for e in log.epochs)
    if best < 0.90:
        failures.append(f"best test accuracy {best:.4f} < 0.90 "
                        f"within {epochs} epochs")
    verdict(f"{tag} (best test accuracy {best:.4f}, {classes} classes)",
            failures, started, budget=budget)


def test_07_desk_training_gate():
    """Reduced network (encoder + one OR-join residual block), T=4, on a
    1000-train/1000-test subset of the 28x28 handwritten-digit IDX set:
    >= 90% test accuracy within 10 epochs on one desktop CPU."""
    data_dir = _mnist_dir()
    if data_dir is None:
        print("[SKIP] 07 desk-training-gate: no 28x28 digit IDX files "
              "(set ORSNN_MNIST_DIR or populate data/mnist); the bundled "
              "8x8 fallback gate below still exercises the same path")
        pytest.skip("28x28 digit IDX files not available in this environment")
    train_xy = subset(load_idx_dir(data_dir, "train").xy(), 1000, seed=0)
    test_xy = subset(load_idx_dir(data_dir, "test").xy(), 1000, seed=0)
    _desk_gate(train_xy, test_xy,
               "c32k3s1p1-BN-LIF-(OR-SEW Block(c64))-AP-FC10", 10,
               budget=900.0, tag="07 desk-training-gate (28x28 digits)")


def test_07b_desk_training_gate_bundled_digits(tmp_path):
    """Always-on stand-in for the gate above: same reduced architecture and
    settings on scikit-learn's bundled 8x8 digit images (1000 train / 797
    test), round-tripped through the engine's own IDX writer and loader so
    CI proves the whole pipeline without external data."""
    datasets = pytest.importorskip("sklearn.datasets")
    digits = datasets.load_digits()
    x = (digits.images / 16.0).astype(np.float32)[:, None]
    y = digits.target.astype(np.uint8)
    for prefix, lo, hi in (("train", 0, 1000), ("t10k", 1000, len(y))):
        save_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", x[lo:hi, 0])
        save_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", y[lo:hi])
    train_xy = load_idx_dir(tmp_path, "train").xy()
    test_xy = load_idx_dir(tmp_path, "test").xy()
    _desk_gate(train_xy, test_xy,
               "c16k3s1p1-BN-LIF-(OR-SEW Block(c32))-AP-FC10", 10,
               budget=900.0, tag="07b desk-training-gate (bundled 8x8 digits)")


def test_08_temporal_attention_efficacy():
    """On synthetic sequences whose class is carried only by motion
    direction, an OR network with the temporal gate reaches >= 85% test
    accuracy while a per-frame (T=1) baseline stays <= 55%."""
    started = time.time()
    failures = []
    n_samples, t_steps, h, w = 200, 8, 12, 12
    ds = synth_events("two-class-motion", n_samples, t_steps, h, w, seed=4)
    x, y = ds.xy()
    cut = 160
    train_xy, test_xy = (x[:cut], y[:cut]), (x[cut:], y[cut:])
    arch = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC2"
    seed = 1

    net = build_network(arch, attention=AttentionPlan("T", "a"),
                        time_steps=t_steps, in_channels=2, seed=seed)
    cfg = TrainConfig(lr=5e-3, time_steps=t_steps, batch_size=16, epochs=8,
                      seed=seed)
    log = TrainingLog()
    train(net, train_xy, cfg, test_xy, log=log)
    temporal_best = max(e.val_acc for e in log.epochs)
    if temporal_best < 0.85:
        failures.append(f"temporal-gate accuracy {temporal_best:.3f} < 0.85")

    # per-frame baseline: identical frames, labels inherited, T=1, no gate
    frames_train = (train_xy[0].reshape(cut * t_steps, 1, 2, h, w),
                    np.repeat(train_xy[1], t_steps))
    frames_test = (test_xy[0].reshape((n_samples - cut) * t_steps, 1, 2, h, w),
                   np.repeat(test_xy[1], t_steps))
    baseline = build_network(arch, time_steps=1, in_channels=2, seed=seed)
    cfg = TrainConfig(lr=5e-3, time_steps=1, batch_size=64, epochs=4,
                      seed=seed)
    log = TrainingLog()
    train(baseline, frames_train, cfg, frames_test, log=log)
    frame_best = max(e.val_acc for e in log.epochs)
    if frame_best > 0.55:
        failures.append(f"per-frame baseline accuracy {frame_best:.3f} > 0.55")
    verdict(f"08 temporal-gate efficacy (sequence {temporal_best:.3f} "
            f"vs per-frame {frame_best:.3f})", failures, started, budget=600.0)


LAYOUT_FIXTURES = {
    "a": ("c128k3s2p1-BN-MA-LIF-c128k3s1p1-BN-LIF | c128k1s2-BN-IA-LIF | "
          "c128k3s1p1-BN-MA-LIF-c128k3s1p1-BN-LIF"),
    "b": ("c128k3s2p1-BN-LIF-c128k3s1p1-BN-MA-LIF | c128k1s2-BN-IA-LIF | "
          "c128k3s1p1-BN-LIF-c128k3s1p1-BN-MA-LIF"),
    "c": ("c128k3s2p1-BN-MA-LIF-c128k3s1p1-BN-LIF | c128k1s2-BN-IA-LIF | "
          "c128k3s1p1-BN-LIF-c128k3s1p1-BN-LIF"),
    "d": ("c128k3s2p1-BN-LIF-c128k3s1p1-BN-MA-LIF | c128k1s2-BN-IA-LIF | "
          "c128k3s1p1-BN-LIF-c128k3s1p1-BN-LIF"),
}


def test_09_attention_binarity_and_placement_layouts():
    """Every promoting/inhibitory gate mask is strictly binary on random
    real-valued inputs, and the four placement modes serialize to the
    frozen block layouts."""
    started = time.time()
    failures = []
    lif_cfg = LIFConfig()
    for flavor in ("T", "C", "S"):
        for role in ("MA", "IA"):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                gate = make_attention(AttentionPlan(flavor, "a"), role,
                                      f"g{flavor}{role}", channels=8,
                                      time_steps=4, lif_cfg=lif_cfg, rng=rng)
                x = rng.normal(0.0, 2.0, size=(4, 3, 8, 5, 5)).astype(np.float32)
                mask = gate.apply(Tensor(nhwc(x)), ForwardContext())[1]
                if not np.all((mask == 0.0) | (mask == 1.0)):
                    failures.append(f"{flavor}/{role} seed {seed}: "
                                    "non-binary gate values")
    for place, expected in LAYOUT_FIXTURES.items():
        net = build_network("c64k3s1p1-BN-LIF-(OR-SEW Block(c128))-AP-FC10",
                            attention=AttentionPlan("T", place), time_steps=4,
                            in_channels=1, seed=0)
        layout = net.blocks()[0].render_layout()
        if layout != expected:
            failures.append(f"placement {place}: layout {layout!r} != "
                            f"{expected!r}")
    verdict("09 gate binarity + placement layout fixtures (a-d)",
            failures, started, budget=60.0)


def test_10_natural_pruning_detector():
    """A shortcut whose recorded rate reaches exact zero mid-training is
    flagged at the right epoch under patience 5; a 1e-6 floor is not."""
    started = time.time()
    failures = []

    def trace_of(rates):
        tr = FiringRateTrace()
        for epoch, rate in enumerate(rates):
            tr.append(epoch, {"shortcut": rate})
        return tr

    report = detect_natural_pruning(
        trace_of([0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]), ["shortcut"],
        patience=5)
    if [f.layer for f in report.flagged] != ["shortcut"]:
        failures.append("exact-zero trace was not flagged")
    elif report.flagged[0].first_zero_epoch != 2:
        failures.append(f"flagged at epoch {report.flagged[0].first_zero_epoch}, "
                        "expected 2")
    report = detect_natural_pruning(
        trace_of([0.3, 0.1, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6]), ["shortcut"],
        patience=5)
    if report.flagged:
        failures.append("1e-6 floor trace was wrongly flagged")
    verdict("10 natural-pruning detector (exact-zero rule, patience 5)",
            failures, started, budget=10.0)
