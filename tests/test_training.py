"""Training loop: per-dataset defaults, the Adam reference math, zero-lr
invariance, single-batch overfit, gradient flow, a train step's memory
and page faults, divergence reporting, and seed determinism."""

import gc
import hashlib
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

import orsnn
from orsnn import tensor as tz
from orsnn import residual
from orsnn.attention import AttentionGate, AttentionPlan
from orsnn.config import parse_config
from orsnn.data import synth_events
from orsnn.errors import ConfigError, DivergenceError, ShapeError
from orsnn.network import build_network, frames_to_input
from orsnn.record import instrumented_pass
from orsnn.residual import JoinMode
from orsnn.tensor import Tensor
from orsnn.training import (
    TABLE_DEFAULTS,
    Adam,
    TrainConfig,
    TrainingLog,
    evaluate,
    train,
)

from conftest import (graph_held_bytes, graph_nodes, node_kind, silent_chunks,
                      unreleased_forward)

SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"
CONV_ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c32))-AP-FC4"
LONG_T_ARCH = "c4k3s1p1-BN-LIF-(OR-SEW Block(c8))-AP-FC2"
# arch, synth kind, height = width, T and batch of the two benchmark train networks
TRAIN_NETS = {"train-conv": (CONV_ARCH, "moving-bar", 16, 8, 32),
              "train-longT": (LONG_T_ARCH, "two-class-motion", 8, 32, 8)}


def tiny_dataset(n=8, classes=4, hw=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1, hw, hw)).astype(np.float32)
    y = (np.arange(n) % classes).astype(np.int64)
    return x, y


def tiny_net(seed=0, time_steps=2, arch=SMALL):
    return build_network(arch, time_steps=time_steps, in_channels=1, seed=seed)


def param_bytes(net):
    return {name: p.data.tobytes() for name, p in net.named_params()}


def train_net_batch(which: str, seed: int = 901, plan: str = "T/a"):
    """A benchmark train network (T/a gates unless plan says otherwise, init
    seed 0), one seeded batch as time-major input, and its labels."""
    arch, kind, hw, t, batch = TRAIN_NETS[which]
    net = build_network(arch, attention=AttentionPlan.parse(plan), time_steps=t,
                        in_channels=2, seed=0)
    x, y = synth_events(kind, batch, t, hw, hw, seed=seed).xy()
    return net, frames_to_input(x), y


class TestDefaults:
    def test_per_dataset_settings_are_frozen(self):
        assert TABLE_DEFAULTS["dvs-gesture"] == dict(
            lr=1e-4, time_steps=32, batch_size=32, epochs=1000, transforms=())
        assert TABLE_DEFAULTS["cifar10-dvs"] == dict(
            lr=1e-3, time_steps=16, batch_size=128, epochs=500,
            transforms=("flip(0.5)", "translate(0.0195,0.0391)"))
        assert TABLE_DEFAULTS["mnist"] == dict(
            lr=1e-2, time_steps=16, batch_size=128, epochs=100, transforms=())
        assert TABLE_DEFAULTS["fashion-mnist"] == dict(
            lr=1e-2, time_steps=16, batch_size=128, epochs=100,
            transforms=("flip(0.5)", "normalize(0.5,0.5)"))

    def test_default_config_applies_overrides(self):
        cfg = parse_config("[experiment]\ndataset = dvs-gesture\narch = " + SMALL +
                           "\n[train]\nepochs = 3\nbatch_size = 16\n").train
        assert cfg.lr == 1e-4
        assert cfg.time_steps == 32
        assert cfg.epochs == 3
        assert cfg.batch_size == 16

    @pytest.mark.parametrize("field,value,match", [
        ("lr", -0.1, "lr"),
        ("lr", float("nan"), "lr"),
        ("lr", float("inf"), "lr"),
        ("lr", float("-inf"), "lr"),
        ("time_steps", 0, "time_steps"),
        ("batch_size", 0, "batch_size"),
        ("epochs", -1, "epochs"),
        ("patience", 0, "patience"),
    ])
    def test_validate_rejects_bad_fields(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**{field: value}).validate()


class TestAdam:
    def test_two_steps_match_reference_math(self):
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        grads = [np.array([0.3, -0.7, 1.1]), np.array([-0.2, 0.4, 0.9])]
        for step, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1 ** step)
            vhat = v / (1 - beta2 ** step)
            ref = ref - 0.1 * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_first_step_moves_by_lr_toward_minus_grad_sign(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.05)
        p.grad = np.array([3.0, -4.0])
        opt.step()
        # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
        np.testing.assert_allclose(p.data, [-0.05, 0.05], rtol=1e-6)

    def test_none_grad_is_skipped(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([("a", a), ("b", b)], lr=0.1)
        a.grad = np.array([1.0])
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 2.0

    def test_zero_grad_clears_to_none(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_duplicate_parameter_names_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ConfigError, match="duplicate parameter name"):
            Adam([("p", p), ("p", p)], lr=0.1)


def test_zero_lr_epoch_leaves_parameters_bit_unchanged():
    net = tiny_net(seed=2)
    before = param_bytes(net)
    data = tiny_dataset(seed=2)
    cfg = TrainConfig(lr=0.0, time_steps=2, batch_size=4, epochs=1, seed=2)
    log = train(net, data, cfg)
    assert len(log.epochs) == 1
    after = param_bytes(net)
    assert before == after


@pytest.mark.parametrize("framed", [False, True], ids=["static", "framed"])
def test_a_time_steps_mismatch_is_refused_before_any_parameter_moves(framed):
    net = tiny_net(seed=2)
    before = param_bytes(net), [b.tobytes() for _, b in net.named_buffers()]
    x, y = tiny_dataset(seed=2)
    if framed:  # frames that do match the config's T
        x = np.repeat(x[:, None], 3, axis=1)
    cfg = TrainConfig(lr=1e-2, time_steps=3, batch_size=4, epochs=1, seed=2)
    with pytest.raises(ConfigError, match=r"^time_steps is 3, network built for T=2$"):
        train(net, (x, y), cfg)
    assert (param_bytes(net), [b.tobytes() for _, b in net.named_buffers()]) == before


def test_single_batch_overfit_reaches_high_accuracy():
    class _Done(Exception):
        pass

    net = tiny_net(seed=1, time_steps=4)
    data = tiny_dataset(n=8, classes=4, seed=1)
    hit = {}

    def stop_when_fit(stats):
        if stats.train_acc >= 0.99:
            hit["epoch"] = stats.epoch
            raise _Done

    cfg = TrainConfig(lr=5e-3, time_steps=4, batch_size=8, epochs=200, seed=1)
    with pytest.raises(_Done):
        train(net, data, cfg, on_epoch=stop_when_fit)
    assert hit["epoch"] <= 200


def test_every_parameter_receives_gradient():
    # A freshly initialized net can sit fully quiescent (closed attention
    # masks multiply activity and gradients to zero), so put it in an
    # active regime first: positive norm shifts make neurons fire and
    # uniform positive gate weights open the attention masks.
    plan = AttentionPlan("T", "b", temporal_reduction=2)
    for seed in range(3):
        net = build_network(SMALL, attention=plan, time_steps=4,
                            in_channels=1, seed=seed)
        for name, p in net.named_params():
            if name.endswith(".beta"):
                p.data[...] = 3.0
            if ".ma" in name or ".ia." in name:
                p.data[...] = 0.4
        x, _ = tiny_dataset(n=4, seed=seed)
        y = np.array([0, 1, 1, 2], dtype=np.int64)
        inp = np.repeat(x[None], 4, axis=0)
        logits = net.forward(inp, training=True)
        loss = tz.softmax_cross_entropy(logits, y)
        tz.backward(loss)
        for name, p in net.named_params():
            assert p.grad is not None, f"{name} missing grad (seed {seed})"
            assert np.any(p.grad != 0), f"{name} grad all zero (seed {seed})"


def test_training_leaves_other_graphs_intact():
    """A graph built before a training run still backpropagates after it."""
    x = Tensor(np.array(2.0), requires_grad=True)
    y = tz.mul(x, x)
    train(tiny_net(), tiny_dataset(n=4),
          TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=1))
    tz.backward(tz.mul(y, y))
    assert x.grad == 32.0


def test_second_step_does_not_hold_the_first_steps_graph():
    """At train-conv's shapes (two OR-SEW blocks, T=8, batch 32, 2x16x16
    events) a step that still held its predecessor's graph peaked 1.38x as
    high as the first step."""
    net = build_network(CONV_ARCH, time_steps=8, in_channels=2, seed=0)
    rng = np.random.default_rng(0)
    x = (rng.random((64, 8, 2, 16, 16)) < 0.2).astype(np.float32)
    y = np.arange(64) % 4
    peaks, forward = [], net.forward

    def traced_forward(*args, **kwargs):  # peak since the previous forward began
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return forward(*args, **kwargs)

    net.forward = traced_forward
    tracemalloc.start()
    try:
        train(net, (x, y), TrainConfig(lr=1e-3, time_steps=8, batch_size=32, epochs=1),
              val_data=(x[:4], y[:4]))
    finally:
        tracemalloc.stop()
    first, second = peaks[1], peaks[2]  # the steps; peaks[2] is read at validation
    assert second <= 1.1 * first, (first, second)


@pytest.mark.parametrize("plan,gates,most", [("T/a", 6, 50), ("S/a", 2, 45)])
def test_train_conv_step_has_one_node_per_gate_and_per_join(monkeypatch, plan, gates, most):
    """One train-conv step (batch 32) reaches at most `most` nodes from the
    loss, and each of its gates and two OR joins is a single node whose
    parents are its inputs. With T/a gates it reaches 45, where the composed
    graph had 139 nodes, 16 per T gate and 3 per join; with S/a gates (on
    the shortcuts alone) 41, where the composed S gates of six nodes each
    made 51."""
    made = []  # (output, the inputs it must hang from directly)
    apply, join = AttentionGate.apply, residual.join

    def recorded_apply(gate, x, ctx):
        out, mask = apply(gate, x, ctx)
        made.append((out, (x, *(p for _, p in gate.named_params()))))
        return out, mask

    def recorded_join(x, y, *args, **kwargs):
        out = join(x, y, *args, **kwargs)
        made.append((out, (x, y)))
        return out

    monkeypatch.setattr(AttentionGate, "apply", recorded_apply)
    monkeypatch.setattr(residual, "join", recorded_join)
    net, inp, y = train_net_batch("train-conv", plan=plan)
    loss = tz.softmax_cross_entropy(net.forward(inp, training=True), y)
    assert len(made) == gates + 2
    for out, inputs in made:
        assert out.parents == inputs
    seen, todo = {}, [loss]
    while todo:
        node = todo.pop()
        if node.index and id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.parents)
    assert len(seen) <= most, len(seen)


class TestTrainStepMemory:
    # sha256 of one step's logits and of every (name, gradient) in
    # named_params order, taken before backward consumed the graph
    DIGESTS = {
        "train-conv": ("076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
                       "357f48af7a9fe3820f5caf2d827b7ac1ffe751ae2c0c5922a17ed320d5704f6a"),
        "train-longT": ("44ee419ee062e3119d4238e56d5d4933666cd79c2f3a7657e1ec2408fe9bbc3a",
                        "866f9aadfcbb3e741072f27a1906639a8181f786a80266c9a3bf46ae04562240"),
    }
    # the numeric stack they were taken on: GEMM and reduction rounding
    # depend on the BLAS build and numpy's SIMD loops
    DIGEST_STACK = ("x86_64", "2.4.6", "scipy-openblas 0.3.31.188.0")

    def test_backward_peak_stays_near_the_forwards_bytes(self):
        """At train-conv's shapes, backward frees each node's data and saved
        arrays once it has run, so its traced peak stays within 1.15x of
        what the forward keeps; a backward that held every interior
        gradient until it returned peaked at 1.68x."""
        net, inp, y = train_net_batch("train-conv")
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = tz.softmax_cross_entropy(net.forward(inp, training=True), y)
            kept = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tz.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 1.15 * kept, (peak, kept)

    @pytest.mark.parametrize("which", sorted(TRAIN_NETS))
    def test_one_step_matches_pinned_digests(self, which):
        # machine and numpy first: show_config(mode=) exists from numpy 1.26 on
        stack = (platform.machine(), np.__version__)
        if stack == self.DIGEST_STACK[:2]:
            blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
            stack += (f"{blas.get('name')} {blas.get('version')}",)
        if stack != self.DIGEST_STACK:
            pytest.skip(f"digests were taken on {self.DIGEST_STACK}, this is {stack}")
        net, inp, y = train_net_batch(which)
        logits = net.forward(inp, training=True)
        tz.backward(tz.softmax_cross_entropy(logits, y))
        grads = hashlib.sha256()
        for name, p in net.named_params():
            grads.update(name.encode())
            grads.update(p.grad.tobytes())
        digests = (hashlib.sha256(logits.data.tobytes()).hexdigest(), grads.hexdigest())
        assert digests == self.DIGESTS[which]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc's")
    def test_train_steps_take_no_page_faults_under_the_cli_allocator_policy(self):
        """Under cli.keep_freed_memory a train-conv step reuses the memory
        the previous step freed. Without it each step took about 12,000
        minor faults: glibc returned the freed activations to the kernel
        and the next step faulted them in again."""
        code = textwrap.dedent(f"""
            import resource, sys
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from orsnn import cli, tensor as tz
            from orsnn.training import Adam
            from test_training import train_net_batch
            cli.keep_freed_memory()
            net, inp, y = train_net_batch("train-conv")
            opt = Adam(net.named_params(), lr=0.01)
            def step():
                opt.zero_grad()
                tz.backward(tz.softmax_cross_entropy(net.forward(inp, training=True), y))
                opt.step()
            for _ in range(3):
                step()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                step()
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
        """)
        src = str(Path(orsnn.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) <= 100, run.stdout


def conv_backward_two_copies(x4, w, g4, stride, padding):
    """conv2d's backward as it was before dX and dW shared each chunk's
    copy of g: dW sums cols^T g over chunks of an im2col of pad_p(x), and
    dX runs the polyphase phases over a padded copy of g (g's own rows for
    a 1x1 kernel). Each copy is chunked by its own row width, at most
    _CONV_CHUNK floats or one image."""
    def chunks(xp, kh, kw, s, oh, ow):
        b, _, _, c = xp.shape
        sb, sh, sw, sc = xp.strides
        runs = as_strided(xp, (b, oh, ow, kh, kw * c), (sb, s * sh, s * sw, sh, sc),
                          writeable=False)
        step = max(1, tz._CONV_CHUNK // (oh * ow * kh * kw * c))
        for b0 in range(0, b, step):
            yield slice(b0, b0 + step), runs[b0:b0 + step].reshape(-1, kh * kw * c)

    batch, h, wid, cin = x4.shape
    cout, _, k, _ = w.shape
    _, out_h, out_w, _ = g4.shape
    xp = np.pad(x4, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    dw = sum((cols.T @ g4[sl].reshape(-1, cout)
              for sl, cols in chunks(xp, k, k, stride, out_h, out_w)),
             np.zeros((k * k * cin, cout), dtype=g4.dtype))
    dw = dw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
    along_h = list(tz._phases(h, k, stride, padding))
    along_w = list(tz._phases(wid, k, stride, padding))
    lo = (k - 1) // stride
    ext = [lo + max([n] + [m0 + m for *_, m0, m in axis])
           for n, axis in ((out_h, along_h), (out_w, along_w))]
    gp = np.zeros((batch, *ext, cout), dtype=g4.dtype)
    gp[:, lo:lo + out_h, lo:lo + out_w] = g4
    dx = np.empty((batch, h, wid, cin), dtype=np.result_type(g4, w))
    for d, r, kr, m0, mh in along_h:
        for e, c, kc, n0, mw in along_w:
            phase = dx[:, d::stride, e::stride]
            if not (kr and kc):
                phase[...] = 0
            elif k == 1:
                taps = g4[:, m0:m0 + mh, n0:n0 + mw].reshape(-1, cout)
                phase[...] = (taps @ w[:, :, 0, 0]).reshape(phase.shape)
            else:
                sub = w[:, :, r::stride, c::stride][:, :, ::-1, ::-1]
                sub = sub.transpose(2, 3, 0, 1).reshape(-1, cin)
                view = gp[:, m0 + lo - kr + 1:, n0 + lo - kc + 1:]
                for sl, taps in chunks(view, kr, kc, 1, mh, mw):
                    if stride == 1:
                        np.matmul(taps, sub, out=dx[sl].reshape(-1, cin))
                    else:
                        phase[sl] = (taps @ sub).reshape(-1, mh, mw, cin)
    return dx, dw


@pytest.mark.parametrize("which", sorted(TRAIN_NETS))
def test_conv_backward_bytes_match_the_two_copy_formulation(which, monkeypatch):
    """At every conv of both benchmark train networks, in one training
    forward, conv2d's dX and dW are byte-equal to the formulation that
    built a second im2col copy, of x, for dW. Both sum the same products;
    only the GEMM blocking could differ, so the comparison holds on the
    stack the step digests were pinned on."""
    stack = (platform.machine(), np.__version__)
    if stack == TestTrainStepMemory.DIGEST_STACK[:2]:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        stack += (f"{blas.get('name')} {blas.get('version')}",)
    if stack != TestTrainStepMemory.DIGEST_STACK:
        pytest.skip(f"pinned on {TestTrainStepMemory.DIGEST_STACK}, this is {stack}")
    calls, conv2d = [], tz.conv2d

    def recorded(x, w, stride=1, padding=0):
        out = conv2d(x, w, stride, padding)
        calls.append((x.data, w.data, stride, padding, out))
        return out

    monkeypatch.setattr(tz, "conv2d", recorded)
    net, inp, _ = train_net_batch(which)
    with tz.no_grad():
        net.forward(inp, training=True)
    assert len(calls) == {"train-conv": 11, "train-longT": 6}[which]
    rng = np.random.default_rng(5)
    skipped = 0  # chunks whose dW GEMM the backward skips as all silent
    for i, (x, w, stride, padding, out) in enumerate(calls):
        x4 = np.ascontiguousarray(x).reshape(-1, *x.shape[-3:])
        live = tz._live_images(x4, w.shape[2], stride)
        if live is not None:
            oh, ow, _ = out.shape[-3:]
            step = max(1, tz._CONV_CHUNK // (oh * ow * w[0].size))
            skipped += silent_chunks(live, step)
        g = rng.standard_normal(out.shape).astype(np.float32)
        xt, wt = Tensor(x4, requires_grad=True), Tensor(w, requires_grad=True)
        tz.backward(conv2d(xt, wt, stride, padding), seed=g.reshape(-1, *g.shape[-3:]))
        dx, dw = conv_backward_two_copies(x4, w, g.reshape(-1, *g.shape[-3:]), stride, padding)
        assert xt.grad.tobytes() == dx.tobytes(), (i, x.shape, w.shape, stride)
        assert wt.grad.tobytes() == dw.tobytes(), (i, x.shape, w.shape, stride)
    assert skipped or which != "train-conv", "case no longer exercises the dW skip"


def test_validation_keeps_the_rates_of_a_full_instrumented_pass():
    """train validates with a record that keeps spike counts alone; its
    firing rates (every spiking layer, in order) and spikes/sample are
    byte-equal to those of instrumented_pass, which also takes the input
    census, over the same batches after each epoch."""
    net = build_network(SMALL, attention=AttentionPlan.parse("T/a"), time_steps=4,
                        in_channels=1, seed=3)
    for name, p in net.named_params():
        if name.endswith(".beta"):
            p.data[...] = 1.0  # neurons fire, so the rates are not all zero
    val = tiny_dataset(n=10, seed=4)
    full = []

    def on_epoch(stats):
        batches = [net.to_input(val[0][i:i + 4]) for i in range(0, 10, 4)]
        rec = instrumented_pass(net, batches)
        full.append((list(rec.firing_rates().items()), rec.spikes_per_sample()))

    log = train(net, tiny_dataset(n=12, seed=3),
                TrainConfig(lr=1e-2, time_steps=4, batch_size=4, epochs=2, seed=3),
                val_data=val, on_epoch=on_epoch)
    for i, (rates, per_sample) in enumerate(full):
        assert [(n, series[i]) for n, series in log.trace.rates.items()] == rates
        assert log.epochs[i].spikes_per_sample == per_sample
        assert per_sample > 0 and len(rates) > 4


class TestReleasedActivations:
    """Network.forward releases each activation once its consumer's forward
    has returned, and every backward reads only what its forward captured."""

    @pytest.mark.parametrize("join,plan", [("OR", "T/a"), ("OR", "C/a"), ("OR", "S/a"),
                                           ("OR", "none"), ("ADD", "none"), ("IAND", "none")])
    def test_a_train_step_matches_the_unreleased_chain_bit_for_bit(self, join, plan):
        x, y = synth_events("moving-bar", 8, 8, 16, 16, seed=903).xy()
        inp = frames_to_input(x)
        steps = []
        for forward in (lambda net: net.forward(inp, training=True),
                        lambda net: unreleased_forward(net, inp)):
            net = build_network(CONV_ARCH, JoinMode.parse(join), AttentionPlan.parse(plan),
                                time_steps=8, in_channels=2, seed=0)
            logits = forward(net)
            tz.backward(tz.softmax_cross_entropy(logits, y))
            steps.append((logits.data, [(n, p.grad) for n, p in net.named_params()]))
        (logits, grads), (want_logits, want_grads) = steps
        assert np.array_equal(logits, want_logits)
        for (name, grad), (_, want) in zip(grads, want_grads, strict=True):
            assert np.array_equal(grad, want), name

    def test_a_training_forward_keeps_at_most_4_2x_its_lif_outputs(self):
        """At train-conv's shapes the graph keeps, per stage, BN's xhat,
        LIF's U and S and a gate's input: 3.7x the LIF outputs' bytes. With
        every conv and BN output pinned as well it kept 5.8x. After backward
        only the parameter gradients stay, 0.02x; with each LIF's last
        membrane carried to the next forward it was 0.146x."""
        net, inp, y = train_net_batch("train-conv")
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = tz.softmax_cross_entropy(net.forward(inp, training=True), y)
            kept = tracemalloc.get_traced_memory()[0] - base
            lif = [t for t in graph_nodes(loss) if node_kind(t) == "_lif"]
            spikes = sum(t.size * t.dtype.itemsize for t in lif)
            held = graph_held_bytes(loss)
            tz.backward(loss)
            del loss, lif
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert kept <= 4.2 * spikes, (kept, spikes)
        assert held <= 4.2 * spikes, (held, spikes)
        assert left <= 0.05 * spikes, (left, spikes)


def test_divergence_error_reports_epoch_and_batch():
    net = tiny_net(seed=0)
    dict(net.named_params())["encoder.weight"].data[...] = np.nan
    cfg = TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=1)
    with pytest.raises(DivergenceError) as exc:
        train(net, tiny_dataset(), cfg)
    assert exc.value.epoch == 0
    assert exc.value.batch == 0
    assert "epoch 0 batch 0" in str(exc.value)


def test_training_is_seed_deterministic_including_augmentation():
    results = []
    for _ in range(2):
        net = tiny_net(seed=5)
        cfg = TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=2,
                          seed=5, transforms=("flip(0.5)",))
        log = train(net, tiny_dataset(seed=5), cfg)
        results.append(([e.train_loss for e in log.epochs], param_bytes(net)))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_different_shuffle_seed_changes_trajectory():
    losses = []
    for seed in (0, 1):
        net = tiny_net(seed=9)
        cfg = TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=1, seed=seed)
        log = train(net, tiny_dataset(n=12, seed=9), cfg)
        losses.append(log.epochs[0].train_loss)
    assert losses[0] != losses[1]


class TestEvaluate:
    def test_matches_direct_forward(self):
        net = tiny_net(seed=3)
        x, y = tiny_dataset(n=6, seed=3)
        loss, acc = evaluate(net, (x, y), batch_size=6)
        inp = np.repeat(x[None], 2, axis=0)
        logits = net.forward(inp)
        manual_acc = float((logits.data.argmax(axis=1) == y).mean())
        assert acc == pytest.approx(manual_acc)
        manual_loss = float(tz.softmax_cross_entropy(logits, y).data)
        assert loss == pytest.approx(manual_loss, rel=1e-6)

    def test_batching_does_not_change_result(self):
        net = tiny_net(seed=4)
        data = tiny_dataset(n=8, seed=4)
        l1, a1 = evaluate(net, data, batch_size=8)
        l2, a2 = evaluate(net, data, batch_size=3)
        assert a1 == a2
        assert l1 == pytest.approx(l2, rel=1e-6)

    def test_framed_input_time_mismatch(self):
        net = tiny_net(seed=0)
        frames = np.zeros((4, 3, 1, 8, 8), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        with pytest.raises(ShapeError, match=r"^framed batch has T=3, network built for T=2$"):
            evaluate(net, (frames, labels))

    def test_label_shape_validation(self):
        net = tiny_net(seed=0)
        x, _ = tiny_dataset(n=4)
        bad = np.zeros((3,), dtype=np.int64)
        with pytest.raises(ShapeError, match="labels"):
            evaluate(net, (x, bad))

    def test_empty_split_and_batch_size_below_one_are_refused(self):
        net = tiny_net(seed=0)
        x, y = tiny_dataset(n=4)
        with pytest.raises(ShapeError, match="holds no sample"):
            evaluate(net, (x[:0], y[:0]))
        with pytest.raises(ShapeError, match="holds no sample"):
            train(net, (x[:0], y[:0]), TrainConfig(time_steps=2, epochs=1))
        for size in (0, -1):
            with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {size}"):
                evaluate(net, (x, y), batch_size=size)

    def test_uint8_and_float32_frames_give_identical_results(self):
        net = tiny_net(seed=5)
        counts = np.random.default_rng(5).integers(0, 4, size=(6, 2, 1, 8, 8),
                                                   dtype=np.uint8)
        floats = counts.astype(np.float32)
        y = (np.arange(6) % 4).astype(np.int64)
        assert evaluate(net, (counts, y), batch_size=4) == evaluate(
            net, (floats, y), batch_size=4)
        a = net.forward(net.to_input(counts)).data
        b = net.forward(net.to_input(floats)).data
        assert a.tobytes() == b.tobytes()


def test_silent_shortcut_is_flagged_after_patience_epochs():
    net = tiny_net(seed=6)
    params = dict(net.named_params())
    params["block1.shortcut_bn.gamma"].data[...] = 0.0
    params["block1.shortcut_bn.beta"].data[...] = -5.0
    cfg = TrainConfig(lr=0.0, time_steps=2, batch_size=8, epochs=3, seed=6,
                      patience=2)
    log = train(net, tiny_dataset(seed=6), cfg)
    assert log.epochs[0].flagged == ()
    assert log.epochs[1].flagged == ("block1.shortcut_lif",)
    assert log.epochs[2].flagged == ("block1.shortcut_lif",)
    assert log.epochs[-1].flagged == ("block1.shortcut_lif",)


def test_log_rows_are_csv_ready():
    net = tiny_net(seed=7)
    cfg = TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=2, seed=7)
    log = train(net, tiny_dataset(seed=7), cfg)
    rows = log.rows()
    assert len(rows) == 2
    assert list(rows[0]) == ["epoch", "train_loss", "train_acc", "val_loss",
                             "val_acc", "spikes_per_sample", "flagged", "seconds"]
    assert rows[0]["epoch"] == 0
    float(rows[0]["train_loss"])
    float(rows[1]["spikes_per_sample"])


def test_resume_continues_epoch_numbering():
    net = tiny_net(seed=8)
    cfg = TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=4, seed=8)
    log = TrainingLog()
    train(net, tiny_dataset(seed=8), cfg, log=log)
    more = train(net, tiny_dataset(seed=8),
                 TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=6, seed=8),
                 log=log, start_epoch=4)
    assert [e.epoch for e in more.epochs] == [0, 1, 2, 3, 4, 5]
    assert more is log


def test_readme_python_api_block_runs(tmp_path):
    """README's `## Python API` code block runs as written, so the documented
    API cannot drift from the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(orsnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
