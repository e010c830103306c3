"""Dataset ingestion and generation.

Covers the IDX image format (plain or gzip), a small self-describing
container for pre-framed event tensors, a deterministic synthetic event
generator whose classes differ only by motion direction, batch
augmentation, and CSV helpers for the report files. Event frames stay
uint8 counts and IDX images load as float32 in [0, 1]; Network.forward
casts either to its own dtype in the one copy it makes at entry.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import re
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadMagic, ConfigError, CountMismatch, DataFormatError,
                     DatasetNotFound, ShapeError, Truncated)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
EVT_MAGIC = b"ORSNN-EVT v1"


@dataclass
class IdxDataset:
    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ShapeError(f"IDX images must be [N,1,H,W], got {self.images.shape}")
        if self.labels.shape[0] != self.images.shape[0]:
            raise CountMismatch(
                f"{self.images.shape[0]} images vs {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.images.shape[0]

    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels


@dataclass
class FramedEventSet:
    frames: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.frames.ndim != 5:
            raise ShapeError(f"event frames must be [N,T,2,H,W], got {self.frames.shape}")
        if self.frames.shape[2] != 2:
            raise ShapeError(
                f"event frames need 2 polarity channels, got {self.frames.shape[2]}")
        if self.labels.shape[0] != self.frames.shape[0]:
            raise CountMismatch(
                f"{self.frames.shape[0]} samples vs {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def time_steps(self) -> int:
        return self.frames.shape[1]

    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        return self.frames, self.labels


def subset(xy, n: int | None, seed: int = 0):
    """A random n-sample subset of (inputs, labels) drawn with `seed` and
    kept in their order; xy itself when n is None or not below its length."""
    if n is None or n >= xy[0].shape[0]:
        return xy
    picked = np.sort(np.random.default_rng(seed).permutation(xy[0].shape[0])[:n])
    return xy[0][picked], xy[1][picked]


# ---------------------------------------------------------------------------
# IDX format


def _read_file(path) -> bytes:
    path = Path(path)
    if not path.exists():
        raise DatasetNotFound(f"no such file: {path}")
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except EOFError as err:
            raise Truncated(f"{path}: gzip stream ends early: {err}") from err
        except (gzip.BadGzipFile, zlib.error) as err:
            raise DataFormatError(f"{path}: corrupt gzip stream: {err}") from err
    return raw


def _idx_header(raw: bytes, words: int, path) -> tuple[int, ...]:
    need = 4 * words
    if len(raw) < need:
        raise Truncated(f"{path}: header needs {need} bytes, file has {len(raw)}")
    return struct.unpack(f">{words}I", raw[:need])


def load_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file to float32 [N,1,H,W] scaled into [0,1]."""
    raw = _read_file(path)
    magic, n, h, w = _idx_header(raw, 4, path)
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagic(f"{path}: expected image magic {IDX_IMAGE_MAGIC:#010x}, "
                       f"got {magic:#010x}")
    body = raw[16:]
    if len(body) != n * h * w:
        raise Truncated(f"{path}: expected {n * h * w} pixel bytes, got {len(body)}")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, 1, h, w)
    return pixels.astype(np.float32) / 255.0


def load_idx_labels(path) -> np.ndarray:
    raw = _read_file(path)
    magic, n = _idx_header(raw, 2, path)
    if magic != IDX_LABEL_MAGIC:
        raise BadMagic(f"{path}: expected label magic {IDX_LABEL_MAGIC:#010x}, "
                       f"got {magic:#010x}")
    body = raw[8:]
    if len(body) != n:
        raise Truncated(f"{path}: expected {n} label bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path) -> IdxDataset:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images in {images_path} vs "
                            f"{labels.shape[0]} labels in {labels_path}")
    return IdxDataset(images, labels)


def save_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 pixels (or [0,1] floats, rescaled) as an IDX image file."""
    if images.ndim == 4 and images.shape[1] == 1:
        images = images[:, 0]
    if images.ndim != 3:
        raise ShapeError(f"expected [N,H,W] or [N,1,H,W] images, got {images.shape}")
    if images.dtype != np.uint8:
        images = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    n, h, w = images.shape
    with replacing(path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGE_MAGIC, n, h, w))
        fh.write(np.ascontiguousarray(images).tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be [N], got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise DataFormatError("IDX labels must fit a byte")
    with replacing(path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


_IDX_SPLITS = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def find_idx_pair(directory, split: str) -> tuple[Path, Path]:
    directory = Path(directory)
    if split not in _IDX_SPLITS:
        raise ConfigError(f"split must be train or test, got {split!r}")
    paths = []
    for stem in _IDX_SPLITS[split]:
        for candidate in (directory / stem, directory / f"{stem}.gz"):
            if candidate.exists():
                paths.append(candidate)
                break
        else:
            raise DatasetNotFound(
                f"no {stem}[.gz] under {directory} for split {split!r}")
    return paths[0], paths[1]


def load_idx_dir(directory, split: str) -> IdxDataset:
    images_path, labels_path = find_idx_pair(directory, split)
    return load_idx(images_path, labels_path)


# ---------------------------------------------------------------------------
# Framed event container


def save_events(path, dataset: FramedEventSet) -> None:
    frames = dataset.frames
    if frames.min(initial=0) < 0 or frames.max(initial=0) > 255:
        raise DataFormatError("event frame values must fit a byte")
    if frames.dtype.kind == "f" and np.any(frames != np.rint(frames)):
        raise DataFormatError("event frame values must be integral counts")
    n, t, c, h, w = frames.shape
    with replacing(path, "wb") as fh:
        fh.write(EVT_MAGIC + b"\n")
        fh.write(f"{n} {t} {c} {h} {w}\n".encode("ascii"))
        fh.write(frames.astype(np.uint8).tobytes())
        fh.write(dataset.labels.astype("<u4").tobytes())


def load_events(path) -> FramedEventSet:
    """Frames as writable uint8 counts [N, T, C, H, W], labels as int64."""
    raw = _read_file(path)
    head, sep, rest = raw.partition(b"\n")
    if head != EVT_MAGIC:
        raise BadMagic(f"{path}: not an event container (got {head[:20]!r})")
    extents, sep, body = rest.partition(b"\n")
    if not sep:
        raise Truncated(f"{path}: missing extent line")
    try:
        n, t, c, h, w = (int(v) for v in extents.split())
    except ValueError as err:
        raise DataFormatError(f"{path}: bad extent line {extents!r}") from err
    if min(n, t, c, h, w) < 0:
        raise DataFormatError(f"{path}: negative extent in {extents!r}")
    frame_bytes = n * t * c * h * w
    label_bytes = 4 * n
    if len(body) != frame_bytes + label_bytes:
        raise Truncated(f"{path}: expected {frame_bytes + label_bytes} payload "
                        f"bytes, got {len(body)}")
    frames = np.frombuffer(body, np.uint8, count=frame_bytes)
    frames = frames.reshape(n, t, c, h, w).copy()  # writable, as IDX images are
    labels = np.frombuffer(body, "<u4", count=n, offset=frame_bytes).astype(np.int64)
    return FramedEventSet(frames, labels)


# ---------------------------------------------------------------------------
# Synthetic motion datasets

SYNTH_KINDS = ("moving-bar", "two-class-motion")


def synth_events(kind: str, n: int, t: int, h: int, w: int, seed: int = 0) -> FramedEventSet:
    """Binary uint8 frame sequences whose class is carried only by motion.

    Every sample is a full-height vertical bar max(1, W // 6) columns wide,
    sliding horizontally with wrap-around; the class fixes the signed
    velocity. Start columns cycle round-robin within each class, so any
    single frame carries a bar at a class-independent position and a
    time-blind model sits at chance.
    Both polarity channels carry the same frame.

    two-class-motion: velocities +1 and -1 column per step (2 classes).
    moving-bar: velocities +1, -1, +2, -2 (4 classes).
    """
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}; known: "
                          f"{', '.join(SYNTH_KINDS)}")
    if t < 2:
        raise ConfigError(f"synthetic sequences need T >= 2, got T={t}")
    if n < 1 or h < 1 or w < 2:
        raise ConfigError(f"bad extents N={n} H={h} W={w}")
    velocities = (1, -1) if kind == "two-class-motion" else (1, -1, 2, -2)
    classes = len(velocities)
    # sample i: label i % classes, start column (i // classes) % w
    i, step, d = np.ogrid[:n, :t, :max(1, w // 6)]
    labels = i[:, 0, 0] % classes
    cols = (i // classes + np.array(velocities)[labels][:, None, None] * step + d) % w
    frames = np.zeros((n, t, 2, h, w), dtype=np.uint8)
    frames[i, step, :, :, cols] = 1
    order = np.random.default_rng(seed).permutation(n)
    return FramedEventSet(frames[order], labels[order])


# ---------------------------------------------------------------------------
# Augmentation


@dataclass(frozen=True)
class Transform:
    kind: str
    args: tuple[float, ...]


_TRANSFORM_RE = re.compile(r"^([a-z][a-z-]*)\(([^)]*)\)$")
_TRANSFORM_ARITY = {"flip": (1, 1), "translate": (2, 2), "normalize": (1, 2)}


def parse_transforms(specs) -> tuple[Transform, ...]:
    out = []
    for spec in specs:
        spec = spec.strip()
        if not spec:
            continue
        m = _TRANSFORM_RE.match(spec)
        if not m:
            raise ConfigError(f"malformed transform {spec!r}; expected name(args)")
        kind = m.group(1)
        if kind not in _TRANSFORM_ARITY:
            raise ConfigError(f"unknown transform {kind!r}; known: "
                              f"{', '.join(sorted(_TRANSFORM_ARITY))}")
        raw_args = [a for a in m.group(2).split(",") if a.strip()]
        lo, hi = _TRANSFORM_ARITY[kind]
        if not lo <= len(raw_args) <= hi:
            raise ConfigError(f"{kind} takes {lo}..{hi} args, got {len(raw_args)}")
        try:
            args = tuple(float(a) for a in raw_args)
        except ValueError as err:
            raise ConfigError(f"non-numeric args in {spec!r}") from err
        if not all(map(math.isfinite, args)):
            raise ConfigError(f"non-finite args in {spec!r}")
        if kind == "flip" and not 0.0 <= args[0] <= 1.0:
            raise ConfigError(f"flip probability must be in [0,1], got {args[0]}")
        if kind == "translate" and any(a < 0 or a >= 1 for a in args):
            raise ConfigError(f"translate fractions must be in [0,1), got {args}")
        if kind == "normalize":
            if len(args) == 1:
                args = (args[0], args[0])
            if args[1] <= 0:
                raise ConfigError(f"normalize std must be > 0, got {args[1]}")
        out.append(Transform(kind, args))
    return tuple(out)


def _shift2d(batch: np.ndarray, i: int, dx: int, dy: int) -> None:
    """In-place zero-fill shift of sample i along the last two axes."""
    sample = batch[i]
    shifted = np.zeros_like(sample)
    h, w = sample.shape[-2], sample.shape[-1]
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_y = slice(max(0, dy), min(h, h + dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_x = slice(max(0, dx), min(w, w + dx))
    shifted[..., dst_y, dst_x] = sample[..., src_y, src_x]
    batch[i] = shifted


def augment(batch: np.ndarray, transforms, rng: np.random.Generator) -> np.ndarray:
    """Apply the transform list to a copy of the batch, in order.

    Works on static [N,C,H,W] and framed [N,T,C,H,W] batches; per-sample
    random choices are shared across the time axis.
    """
    if batch.ndim not in (4, 5):
        raise ShapeError(f"augment expects a 4-D or 5-D batch, got {batch.shape}")
    out = np.array(batch, dtype=np.float32, copy=True)
    n = out.shape[0]
    h, w = out.shape[-2], out.shape[-1]
    for tr in transforms:
        if tr.kind == "flip":
            decisions = rng.random(n) < tr.args[0]
            out[decisions] = out[decisions][..., ::-1]
        elif tr.kind == "translate":
            max_dx = int(tr.args[0] * w)
            max_dy = int(tr.args[1] * h)
            dxs = rng.integers(-max_dx, max_dx + 1, size=n)
            dys = rng.integers(-max_dy, max_dy + 1, size=n)
            for i in range(n):
                if dxs[i] or dys[i]:
                    _shift2d(out, i, int(dxs[i]), int(dys[i]))
        elif tr.kind == "normalize":
            mean, std = tr.args
            out = (out - np.float32(mean)) / np.float32(std)
        else:
            raise ConfigError(f"unknown transform {tr.kind!r}")
    return out


# ---------------------------------------------------------------------------
# CSV report files


@contextmanager
def replacing(path, mode: str, **open_kwargs):
    """Write to a temporary file beside path and os.replace it onto path, so
    a failed or killed writer leaves the previous file. No fsync: a crash of
    the machine before its cache is flushed can still lose the write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows, fieldnames=None) -> None:
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise DataFormatError("cannot infer columns of an empty table")
        fieldnames = list(rows[0].keys())
    with replacing(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise DatasetNotFound(f"no such file: {path}")
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataFormatError(f"{path}: not a CSV table: {err}") from err


def csv_column(path, rows, column: str, cast) -> list:
    """cast(row[column]) for each row read from the CSV file at path; a bad
    or missing value raises DataFormatError naming file, row and column."""
    values = []
    for i, row in enumerate(rows, start=1):
        value = row.get(column)
        try:
            if value is None:
                raise ValueError("no value")
            values.append(cast(value))
        except ValueError as err:
            raise DataFormatError(f"{path}: row {i}, column {column!r}: {err}") from err
    return values
