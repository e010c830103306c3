"""Training loop: per-dataset defaults, the Adam reference math, zero-lr
invariance, single-batch overfit, gradient flow, divergence reporting,
and seed determinism."""

import numpy as np
import pytest

from orsnn import tensor as tz
from orsnn.attention import AttentionPlan
from orsnn.errors import ConfigError, DivergenceError, ShapeError
from orsnn.network import build_network
from orsnn.tensor import Tensor
from orsnn.training import (
    TABLE_DEFAULTS,
    Adam,
    TrainConfig,
    TrainingLog,
    default_config,
    evaluate,
    train,
)

SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"


def tiny_dataset(n=8, classes=4, hw=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1, hw, hw)).astype(np.float32)
    y = (np.arange(n) % classes).astype(np.int64)
    return x, y


def tiny_net(seed=0, time_steps=2, arch=SMALL):
    return build_network(arch, time_steps=time_steps, in_channels=1, seed=seed)


def param_bytes(net):
    return {name: p.data.tobytes() for name, p in net.named_params()}


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
        cfg = default_config("mnist", epochs=3, batch_size=16)
        assert cfg.lr == 1e-2
        assert cfg.time_steps == 16
        assert cfg.epochs == 3
        assert cfg.batch_size == 16

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError, match="no default settings"):
            default_config("imagenet")

    @pytest.mark.parametrize("field,value,match", [
        ("lr", -0.1, "lr"),
        ("time_steps", 0, "time_steps"),
        ("batch_size", 0, "batch_size"),
        ("epochs", -1, "epochs"),
        ("optimizer", "sgd", "optimizer"),
        ("loss", "mse", "loss"),
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
    y = x * x
    train(tiny_net(), tiny_dataset(n=4),
          TrainConfig(lr=1e-3, time_steps=2, batch_size=4, epochs=1))
    tz.backward(y * y)
    assert x.grad == 32.0


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
        loss, acc = evaluate(net, (x, y), batch_size=6, time_steps=2)
        inp = np.repeat(x[None], 2, axis=0)
        logits = net.forward(inp)
        manual_acc = float((logits.data.argmax(axis=1) == y).mean())
        assert acc == pytest.approx(manual_acc)
        manual_loss = float(tz.softmax_cross_entropy(logits, y).data)
        assert loss == pytest.approx(manual_loss, rel=1e-6)

    def test_batching_does_not_change_result(self):
        net = tiny_net(seed=4)
        data = tiny_dataset(n=8, seed=4)
        l1, a1 = evaluate(net, data, batch_size=8, time_steps=2)
        l2, a2 = evaluate(net, data, batch_size=3, time_steps=2)
        assert a1 == a2
        assert l1 == pytest.approx(l2, rel=1e-6)

    def test_framed_input_time_mismatch(self):
        net = tiny_net(seed=0)
        frames = np.zeros((4, 3, 1, 8, 8), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        with pytest.raises(ShapeError, match="framed batch has T=3"):
            evaluate(net, (frames, labels), time_steps=2)

    def test_label_shape_validation(self):
        net = tiny_net(seed=0)
        x, _ = tiny_dataset(n=4)
        bad = np.zeros((3,), dtype=np.int64)
        with pytest.raises(ShapeError, match="labels"):
            evaluate(net, (x, bad), time_steps=2)


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
    assert log.last_flagged() == ("block1.shortcut_lif",)


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
