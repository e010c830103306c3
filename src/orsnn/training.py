"""Training loop: Adam over surrogate gradients through all time steps,
cross-entropy on time-averaged logits, per-epoch firing-rate tracing and
natural-pruning detection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import tensor as tz
from .data import augment, parse_transforms
from .errors import ConfigError, DivergenceError, NumericError, ShapeError
from .metrics import FiringRateTrace, detect_natural_pruning
from .record import SpikeRecord
from .tensor import no_grad

TABLE_DEFAULTS = {
    "dvs-gesture": dict(lr=1e-4, time_steps=32, batch_size=32, epochs=1000,
                        transforms=()),
    "cifar10-dvs": dict(lr=1e-3, time_steps=16, batch_size=128, epochs=500,
                        transforms=("flip(0.5)", "translate(0.0195,0.0391)")),
    "mnist": dict(lr=1e-2, time_steps=16, batch_size=128, epochs=100,
                  transforms=()),
    "fashion-mnist": dict(lr=1e-2, time_steps=16, batch_size=128, epochs=100,
                          transforms=("flip(0.5)", "normalize(0.5,0.5)")),
}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-2
    time_steps: int = 16
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0
    transforms: tuple[str, ...] = ()
    patience: int = 5

    def validate(self) -> "TrainConfig":
        if not 0 <= self.lr < inf:
            raise ConfigError(f"lr must be >= 0 and finite, got {self.lr}")
        if self.time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        parse_transforms(self.transforms)
        return self


class Adam:
    """Adam with bias correction; a parameter with grad None is skipped."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr: float):
        self.params = list(named_params)
        seen = set()
        for name, _ in self.params:
            if name in seen:
                raise ConfigError(f"duplicate parameter name {name!r}")
            seen.add(name)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            g = g.astype(p.data.dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (self.lr * (m / b1t)) / (np.sqrt(v / b2t) + self.eps)
            p.data -= update.astype(p.data.dtype, copy=False)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    spikes_per_sample: float
    flagged: tuple[str, ...]
    seconds: float


@dataclass
class TrainingLog:
    epochs: list[EpochStats] = field(default_factory=list)
    trace: FiringRateTrace = field(default_factory=FiringRateTrace)

    def rows(self) -> list[dict]:
        return [{"epoch": e.epoch,
                 "train_loss": f"{e.train_loss:.6f}",
                 "train_acc": f"{e.train_acc:.6f}",
                 "val_loss": f"{e.val_loss:.6f}",
                 "val_acc": f"{e.val_acc:.6f}",
                 "spikes_per_sample": f"{e.spikes_per_sample:.4f}",
                 "flagged": ";".join(e.flagged),
                 "seconds": f"{e.seconds:.2f}"} for e in self.epochs]


def _as_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    x, y = data
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim not in (4, 5):
        raise ShapeError(
            f"dataset inputs must be [N,C,H,W] or [N,T,C,H,W], got {x.shape}")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ShapeError(
            f"labels must be [N] matching inputs, got {y.shape} vs {x.shape}")
    if x.shape[0] == 0:
        raise ShapeError(f"dataset split holds no sample: inputs {x.shape}")
    return x, y


def evaluate(network, data, *, batch_size: int = 256,
             record: SpikeRecord | None = None) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the whole split, without grads,
    at the network's own time_steps. An empty split and a batch_size below
    1 are refused."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    x, y = _as_arrays(data)
    n = x.shape[0]
    loss_sum = 0.0
    hits = 0
    with no_grad():
        for start in range(0, n, batch_size):
            xb = x[start:start + batch_size]
            yb = y[start:start + batch_size]
            logits = network.forward(network.to_input(xb), record=record,
                                     training=False)
            loss = tz.softmax_cross_entropy(logits, yb)
            loss_sum += float(loss.data) * xb.shape[0]
            hits += int((logits.data.argmax(axis=1) == yb).sum())
    return loss_sum / n, hits / n


def train(network, train_data, cfg: TrainConfig, val_data=None, *,
          log: TrainingLog | None = None, start_epoch: int = 0,
          on_epoch=None) -> TrainingLog:
    """Run the full loop and return the per-epoch log.

    Each epoch shuffles with its own seeded stream, trains with surrogate
    gradients through every time step, then measures loss, accuracy, and
    per-layer firing rates on the validation split (the training split when
    no validation data is given). Shortcut neurons silent for `patience`
    consecutive epochs are flagged in the epoch stats. A non-finite loss
    aborts with the epoch and batch index.
    """
    cfg.validate()
    if cfg.time_steps != network.time_steps:
        raise ConfigError(f"time_steps is {cfg.time_steps}, network built for "
                          f"T={network.time_steps}")
    x, y = _as_arrays(train_data)
    transforms = parse_transforms(cfg.transforms)
    rng_shuffle = np.random.default_rng(cfg.seed + 1)
    rng_augment = np.random.default_rng(cfg.seed + 2)
    opt = Adam(network.named_params(), lr=cfg.lr)
    log = log if log is not None else TrainingLog()
    rate_data = val_data if val_data is not None else train_data
    deterministic = tuple(t for t in transforms if t.kind == "normalize")
    if deterministic:
        rx, ry = _as_arrays(rate_data)
        rate_data = (augment(rx, deterministic, np.random.default_rng(0)), ry)
    n = x.shape[0]
    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.monotonic()
        order = rng_shuffle.permutation(n)
        loss_sum = 0.0
        hits = 0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb = x[idx]
            yb = y[idx]
            if transforms:
                xb = augment(xb, transforms, rng_augment)
            opt.zero_grad()
            try:
                logits = network.forward(network.to_input(xb), training=True)
                loss = tz.softmax_cross_entropy(logits, yb)
            except NumericError as err:
                raise DivergenceError(
                    f"training diverged at epoch {epoch} batch {bi}: {err}",
                    epoch=epoch, batch=bi) from err
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"training diverged at epoch {epoch} batch {bi}: "
                    f"loss={float(loss.data)}", epoch=epoch, batch=bi)
            tz.backward(loss)
            opt.step()
            loss_sum += float(loss.data) * xb.shape[0]
            hits += int((logits.data.argmax(axis=1) == yb).sum())
        rec = SpikeRecord(inputs=False)  # the rates below read spikes alone
        val_loss, val_acc = evaluate(network, rate_data,
                                     batch_size=cfg.batch_size, record=rec)
        log.trace.append(epoch, rec.firing_rates())
        shortcuts = network.shortcut_lif_names()
        report = detect_natural_pruning(log.trace, shortcuts,
                                        patience=cfg.patience)
        stats = EpochStats(
            epoch=epoch, train_loss=loss_sum / n,
            train_acc=hits / n, val_loss=val_loss, val_acc=val_acc,
            spikes_per_sample=rec.spikes_per_sample(),
            flagged=tuple(report.names()), seconds=time.monotonic() - t0)
        log.epochs.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return log
