"""Experiment configuration: a flat INI file with three typed sections
(experiment, lif, train) that round-trips losslessly. Each section's keys
are the scalar fields of its settings dataclass, written and parsed by
settings() and from_settings(), which checkpoint headers use too.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .attention import AttentionPlan
from .data import replacing
from .errors import ConfigError, DatasetNotFound
from .neuron import LIFConfig
from .residual import JoinMode
from .training import TABLE_DEFAULTS, TrainConfig


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


_SECTIONS = ("experiment", "lif", "train")
# retired [train] keys, each with the one value it ever took, which a file may still set
_FIXED = {"optimizer": "adam", "loss": "cross-entropy"}


def settings(obj) -> list[tuple[str, str]]:
    """The (name, text) pairs of a settings dataclass's scalar fields, in
    field order: a bool is lower-case, a tuple comma-joined, anything else
    str (which is repr for a float, so floats keep their exact value)."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            continue
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, tuple):
            text = ",".join(value)
        else:
            text = str(value)
        out.append((f.name, text))
    return out


def from_settings(cls, raw, section: str, base=None):
    """Build `cls` from the text values of `raw` over `base` (default: the
    field defaults). Each value parses like the base value it replaces; a
    field with no default is required and kept as text. A key that is not
    a scalar field of `cls` is refused."""
    scalars = [f for f in fields(cls) if not is_dataclass(f.default_factory)]
    names = {f.name for f in scalars}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    values = {}
    for f in scalars:
        like = f.default if base is None else getattr(base, f.name)
        if f.name not in raw:
            if like is MISSING:
                raise ConfigError(f"missing key {f.name!r} in section [{section}]")
            continue
        text = raw[f.name]
        try:
            values[f.name] = _parse_value(text, like)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"bad value {text!r} for [{section}] {f.name}") from err
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as err:
        raise ConfigError(f"bad [{section}] section: {err}") from err


def _parse_value(text: str, like):
    if isinstance(like, bool):
        return _parse_bool(text)
    if isinstance(like, tuple):
        return _split_top_level(text)
    if isinstance(like, (int, float)):
        value = type(like)(text)
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        return value
    return text


def _split_top_level(raw: str) -> tuple[str, ...]:
    """Split a comma-joined list at top level only, so argument commas
    inside parentheses (e.g. normalize(0.5,0.5)) stay intact."""
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


def render_config(cfg: ExperimentConfig) -> str:
    return "\n".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in settings(obj))
        for section, obj in zip(_SECTIONS, (cfg, cfg.lif, cfg.train)))


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config file. [train] starts from the dataset's row of
    TABLE_DEFAULTS (TrainConfig() for other datasets); keys in the file win."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigError("missing section [experiment]")
    raw = {s: dict(parser.items(s)) if parser.has_section(s) else {}
           for s in _SECTIONS}
    cfg = from_settings(ExperimentConfig, raw["experiment"], "experiment")
    for key, only in _FIXED.items():
        value = raw["train"].pop(key, only)
        if value != only:
            raise ConfigError(f"unknown {key} {value!r}")
    table = TrainConfig(**TABLE_DEFAULTS.get(cfg.dataset, {}))
    return replace(cfg, lif=from_settings(LIFConfig, raw["lif"], "lif"),
                   train=from_settings(TrainConfig, raw["train"], "train", table)
                   ).validate()


def save_config(path, cfg: ExperimentConfig) -> None:
    with replacing(path, "w") as fh:
        fh.write(render_config(cfg))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise DatasetNotFound(f"no such config file: {path}")
    return parse_config(path.read_text())
