"""Experiment configuration: a flat INI file with three typed sections
(experiment, lif, train) that round-trips losslessly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attention import AttentionPlan
from .data import replacing
from .errors import ConfigError, DatasetNotFound
from .neuron import LIFConfig
from .residual import JoinMode
from .training import TABLE_DEFAULTS, TrainConfig, default_config


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    arch: str
    join: str = "OR"
    attention: str = "none"
    in_channels: int = 1
    out_dir: str = "runs/default"
    seed: int = 0
    lif: LIFConfig = field(default_factory=LIFConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "ExperimentConfig":
        if not self.arch.strip():
            raise ConfigError("arch must not be empty")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        self.join_mode()
        self.attention_plan()
        self.train.validate()
        return self

    def join_mode(self) -> JoinMode:
        try:
            return JoinMode.parse(self.join)
        except Exception as err:
            raise ConfigError(f"bad join {self.join!r}: {err}") from err

    def attention_plan(self) -> AttentionPlan | None:
        try:
            return AttentionPlan.parse(self.attention)
        except Exception as err:
            raise ConfigError(f"bad attention {self.attention!r}: {err}") from err

    def build(self):
        """Assemble the configured network (import deferred to avoid cycles)."""
        from .network import build_network
        return build_network(
            self.arch, join=self.join_mode(), attention=self.attention_plan(),
            lif=self.lif, time_steps=self.train.time_steps,
            in_channels=self.in_channels, seed=self.seed)


def experiment_defaults(dataset: str, arch: str, **overrides) -> ExperimentConfig:
    if dataset in TABLE_DEFAULTS:
        train = default_config(dataset, seed=overrides.get("seed", 0))
    else:
        train = TrainConfig(seed=overrides.get("seed", 0))
    cfg = ExperimentConfig(dataset=dataset, arch=arch, train=train)
    return replace(cfg, **overrides).validate()


_EXPERIMENT_KEYS = ("dataset", "arch", "join", "attention", "in_channels",
                    "out_dir", "seed")
_LIF_KEYS = ("tau", "u_threshold", "u_reset", "surrogate_alpha", "reset_mode",
             "detach_reset")
_TRAIN_KEYS = ("lr", "time_steps", "batch_size", "epochs", "optimizer", "loss",
               "seed", "transforms", "patience", "strict_joins")


def render_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"dataset = {cfg.dataset}\n")
    out.write(f"arch = {cfg.arch}\n")
    out.write(f"join = {cfg.join}\n")
    out.write(f"attention = {cfg.attention}\n")
    out.write(f"in_channels = {cfg.in_channels}\n")
    out.write(f"out_dir = {cfg.out_dir}\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write("\n[lif]\n")
    out.write(f"tau = {cfg.lif.tau!r}\n")
    out.write(f"u_threshold = {cfg.lif.u_threshold!r}\n")
    out.write(f"u_reset = {cfg.lif.u_reset!r}\n")
    out.write(f"surrogate_alpha = {cfg.lif.surrogate_alpha!r}\n")
    out.write(f"reset_mode = {cfg.lif.reset_mode}\n")
    out.write(f"detach_reset = {str(cfg.lif.detach_reset).lower()}\n")
    out.write("\n[train]\n")
    out.write(f"lr = {cfg.train.lr!r}\n")
    out.write(f"time_steps = {cfg.train.time_steps}\n")
    out.write(f"batch_size = {cfg.train.batch_size}\n")
    out.write(f"epochs = {cfg.train.epochs}\n")
    out.write(f"optimizer = {cfg.train.optimizer}\n")
    out.write(f"loss = {cfg.train.loss}\n")
    out.write(f"seed = {cfg.train.seed}\n")
    out.write(f"transforms = {','.join(cfg.train.transforms)}\n")
    out.write(f"patience = {cfg.train.patience}\n")
    out.write(f"strict_joins = {str(cfg.train.strict_joins).lower()}\n")
    return out.getvalue()


def _require_keys(section: str, mapping, allowed) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _get(mapping, key, cast, default=None, section=""):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in section [{section}]")
    raw = mapping[key]
    try:
        return cast(raw)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"bad value {raw!r} for [{section}] {key}") from err


def _split_transforms(raw: str) -> tuple[str, ...]:
    """Split a comma-joined transform list at top level only, so argument
    commas inside parentheses (e.g. normalize(0.5,0.5)) stay intact."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(raw):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(raw[start:i])
            start = i + 1
    parts.append(raw[start:])
    return tuple(p.strip() for p in parts if p.strip())


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    for section in parser.sections():
        if section not in ("experiment", "lif", "train"):
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigError("missing section [experiment]")
    exp = dict(parser.items("experiment"))
    _require_keys("experiment", exp, _EXPERIMENT_KEYS)
    lif_raw = dict(parser.items("lif")) if parser.has_section("lif") else {}
    _require_keys("lif", lif_raw, _LIF_KEYS)
    train_raw = dict(parser.items("train")) if parser.has_section("train") else {}
    _require_keys("train", train_raw, _TRAIN_KEYS)
    base_lif = LIFConfig()
    try:
        lif = LIFConfig(
            tau=_get(lif_raw, "tau", float, base_lif.tau, "lif"),
            u_threshold=_get(lif_raw, "u_threshold", float, base_lif.u_threshold, "lif"),
            u_reset=_get(lif_raw, "u_reset", float, base_lif.u_reset, "lif"),
            surrogate_alpha=_get(lif_raw, "surrogate_alpha", float, base_lif.surrogate_alpha, "lif"),
            reset_mode=lif_raw.get("reset_mode", base_lif.reset_mode),
            detach_reset=_get(lif_raw, "detach_reset", _parse_bool, base_lif.detach_reset, "lif"))
    except ValueError as err:
        raise ConfigError(f"bad [lif] section: {err}") from err
    transforms = _split_transforms(train_raw.get("transforms", ""))
    base_train = TrainConfig()
    train = TrainConfig(
        lr=_get(train_raw, "lr", float, base_train.lr, "train"),
        time_steps=_get(train_raw, "time_steps", int, base_train.time_steps, "train"),
        batch_size=_get(train_raw, "batch_size", int, base_train.batch_size, "train"),
        epochs=_get(train_raw, "epochs", int, base_train.epochs, "train"),
        optimizer=train_raw.get("optimizer", base_train.optimizer),
        loss=train_raw.get("loss", base_train.loss),
        seed=_get(train_raw, "seed", int, base_train.seed, "train"),
        transforms=transforms,
        patience=_get(train_raw, "patience", int, base_train.patience, "train"),
        strict_joins=_get(train_raw, "strict_joins", _parse_bool, base_train.strict_joins, "train"))
    cfg = ExperimentConfig(
        dataset=_get(exp, "dataset", str, None, "experiment"),
        arch=_get(exp, "arch", str, None, "experiment"),
        join=exp.get("join", "OR"),
        attention=exp.get("attention", "none"),
        in_channels=_get(exp, "in_channels", int, 1, "experiment"),
        out_dir=exp.get("out_dir", "runs/default"),
        seed=_get(exp, "seed", int, 0, "experiment"),
        lif=lif, train=train)
    return cfg.validate()


def save_config(path, cfg: ExperimentConfig) -> None:
    with replacing(path, "w") as fh:
        fh.write(render_config(cfg))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise DatasetNotFound(f"no such config file: {path}")
    return parse_config(path.read_text())
