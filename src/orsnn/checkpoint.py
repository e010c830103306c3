"""Self-describing checkpoint container.

Layout: a text header (format line, then key=value lines, then a blank
line) followed by named length-prefixed little-endian float32 blocks,
first the trainable parameters and then the persistent buffers, in graph
walk order. Loading rebuilds the graph from the header, re-applies prune
flags, and fills values bit-exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .arch import parse_arch, render_arch
from .attention import AttentionPlan
from .config import from_settings, settings
from .data import replacing
from .errors import (ArchMismatch, BadMagic, CheckpointError, ConfigError,
                     CorruptPayload, DatasetNotFound, VersionMismatch)
from .neuron import LIFConfig
from .residual import JoinMode

CKPT_FORMAT = "ORSNN-CKPT"
CKPT_VERSION = "v1"

# Followed in the header by one lif_<name> line per LIFConfig setting.
_HEADER_KEYS = ("arch", "join", "attention", "attention_reductions",
                "in_channels", "time_steps", "seed", "epoch", "pruned")


def _header_text(network, epoch: int) -> str:
    plan = network.attention
    attention = plan.render() if plan else "none"
    reductions = (f"{plan.temporal_reduction},{plan.channel_reduction},"
                  f"{plan.spatial_kernel}") if plan else "4,16,7"
    pruned = ";".join(network.pruned_block_names())
    lines = [f"{CKPT_FORMAT} {CKPT_VERSION}",
             f"arch={network.arch_string}",
             f"join={network.join_mode.value}",
             f"attention={attention}",
             f"attention_reductions={reductions}",
             f"in_channels={network.in_channels}",
             f"time_steps={network.time_steps}",
             f"seed={network.seed}",
             f"epoch={epoch}",
             f"pruned={pruned}"]
    lines += [f"lif_{name}={text}" for name, text in settings(network.lif_cfg)]
    return "\n".join(lines) + "\n\n"


def _write_blocks(fh, named_arrays) -> None:
    named_arrays = list(named_arrays)
    fh.write(struct.pack("<I", len(named_arrays)))
    for name, arr in named_arrays:
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        data = np.ascontiguousarray(arr, dtype="<f4")
        fh.write(struct.pack("<I", data.size))
        fh.write(data.tobytes())


def save_checkpoint(network, path, epoch: int = 0) -> None:
    """Write network to path, replacing it only once the whole file is
    written. The blocks hold float32 alone, so a network holding any other
    dtype, which would load back rounded, is refused before any write."""
    params = [(n, p.data) for n, p in network.named_params()]
    buffers = network.named_buffers()
    for name, arr in params + buffers:
        if arr.dtype != np.float32:
            raise CheckpointError(
                f"{name} is {arr.dtype}: checkpoint {CKPT_VERSION} stores float32 "
                "only, and loading it back would round it")
    with replacing(path, "wb") as fh:
        fh.write(_header_text(network, epoch).encode("utf-8"))
        _write_blocks(fh, params)
        _write_blocks(fh, buffers)


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.raw):
            raise CorruptPayload(
                f"{self.path}: payload ends early ({len(self.raw) - self.pos} "
                f"bytes left, {count} needed)")
        chunk = self.raw[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_blocks(reader: _Reader) -> list[tuple[str, np.ndarray]]:
    out = []
    for _ in range(reader.u32()):
        try:
            name = reader.take(reader.u16()).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CorruptPayload(f"{reader.path}: undecodable block name: {err}") from err
        count = reader.u32()
        values = np.frombuffer(reader.take(4 * count), dtype="<f4")
        out.append((name, values))
    return out


def _parse_header(text: str, path) -> dict:
    lines = text.split("\n")
    first = lines[0] if lines else ""
    if not first.startswith(CKPT_FORMAT):
        raise BadMagic(f"{path}: not a checkpoint file (got {first[:30]!r})")
    version = first[len(CKPT_FORMAT):].strip()
    if version != CKPT_VERSION:
        raise VersionMismatch(
            f"{path}: checkpoint version {version!r}, this engine reads "
            f"{CKPT_VERSION!r}")
    meta = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CorruptPayload(f"{path}: malformed header line {line!r}")
        meta[key] = value
    lif_keys = tuple(f"lif_{name}" for name, _ in settings(LIFConfig()))
    missing = [k for k in _HEADER_KEYS + lif_keys if k not in meta]
    if missing:
        raise CorruptPayload(f"{path}: header missing keys {missing}")
    return meta


def load_checkpoint(path, expect_arch: str | None = None):
    """Rebuild the saved network; returns (network, epoch).

    `expect_arch` guards resuming: a checkpoint whose architecture differs
    from it raises ArchMismatch before any rebuild work. It is compared in
    the canonical form the header holds (repeat groups expanded, no p0).
    """
    from .network import build_network
    path = Path(path)
    if not path.exists():
        raise DatasetNotFound(f"no such checkpoint: {path}")
    raw = path.read_bytes()
    split = raw.find(b"\n\n")
    if split < 0:
        raise CorruptPayload(f"{path}: header never ends")
    try:
        header = raw[:split].decode("utf-8")
    except UnicodeDecodeError as err:
        raise CorruptPayload(f"{path}: undecodable header: {err}") from err
    meta = _parse_header(header, path)
    if expect_arch is not None and meta["arch"] != render_arch(parse_arch(expect_arch)):
        raise ArchMismatch(
            f"{path}: checkpoint architecture {meta['arch']!r} differs from "
            f"expected {expect_arch!r}")
    try:
        lif = from_settings(LIFConfig, {k[4:]: v for k, v in meta.items()
                                        if k.startswith("lif_")}, "lif")
    except ConfigError as err:
        raise CorruptPayload(f"{path}: bad LIF setting in header: {err}") from err
    for key, count in (("epoch", 1), ("time_steps", 1), ("in_channels", 1), ("seed", 1),
                       ("attention_reductions", 3)):
        parts = meta[key].split(",")
        if len(parts) != count or not all(p.isdecimal() for p in parts):
            what = "an integer" if count == 1 else f"{count} integers"
            raise CorruptPayload(f"{path}: {key} {meta[key]!r} is not {what} >= 0")
    try:
        join = JoinMode.parse(meta["join"])
        tr, cr, sk = (int(v) for v in meta["attention_reductions"].split(","))
        attention = AttentionPlan.parse(meta["attention"],
                                        temporal_reduction=tr,
                                        channel_reduction=cr,
                                        spatial_kernel=sk)
        network = build_network(
            meta["arch"], join=join, attention=attention, lif=lif,
            time_steps=int(meta["time_steps"]),
            in_channels=int(meta["in_channels"]), seed=int(meta["seed"]))
    except CheckpointError:
        raise
    except Exception as err:
        raise ArchMismatch(f"{path}: cannot rebuild saved graph: {err}") from err
    pruned = [p for p in meta["pruned"].split(";") if p]
    by_name = {b.name: b for b in network.blocks()}
    for name in pruned:
        if name not in by_name:
            raise ArchMismatch(f"{path}: pruned block {name!r} not in graph")
        by_name[name].prune()
    reader = _Reader(raw[split + 2:], path)
    params = _read_blocks(reader)
    buffers = _read_blocks(reader)
    if reader.pos != len(reader.raw):
        raise CorruptPayload(
            f"{path}: {len(reader.raw) - reader.pos} trailing bytes")
    _fill("parameter", params, [(n, p.data) for n, p in network.named_params()],
          path)
    _fill("buffer", buffers, network.named_buffers(), path)
    return network, int(meta["epoch"])


def _fill(what: str, saved, live, path) -> None:
    live_map = dict(live)
    if len(saved) != len(live_map):
        raise ArchMismatch(
            f"{path}: checkpoint has {len(saved)} {what} blocks, rebuilt "
            f"graph has {len(live_map)}")
    for name, values in saved:
        target = live_map.get(name)
        if target is None:
            raise ArchMismatch(f"{path}: {what} {name!r} not in rebuilt graph")
        if values.size != target.size:
            raise ArchMismatch(
                f"{path}: {what} {name!r} holds {values.size} values, graph "
                f"expects {target.size}")
        target[...] = values.reshape(target.shape)
