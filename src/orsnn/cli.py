"""Command-line entry point.

Commands: train, eval, audit, energy, prune, report, synth. One command
per process. Exit codes: 0 success/pass, 1 audit-or-verification failure
(including training divergence), 2 usage or environment error. Engine
errors print one machine-readable line to stderr: "ERROR {kind}: {msg}".

Dataset specs accepted by --data/--val-data and the config dataset field:
  synth:KIND:N:T:H:W[:SEED]   generated in memory (KIND per `orsnn synth`)
  path/to/set.evt[.gz]        framed event container, plain or gzip
  path/to/idx-dir             directory with IDX files (split selectable)
  mnist | fashion-mnist       IDX directory from $ORSNN_MNIST_DIR /
                              $ORSNN_FASHION_MNIST_DIR, else ./data/<name>
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, save_config
from .data import (SYNTH_KINDS, augment, csv_column, load_events, load_idx_dir,
                   parse_transforms, read_csv, replacing, save_events, subset,
                   synth_events, write_csv)
from .errors import (ConfigError, DataFormatError, DatasetNotFound, EngineError,
                     NumericError, PruneRefused)
from .metrics import (FiringRateTrace, apply_pruning, detect_natural_pruning,
                      estimate_energy)
from .record import instrumented_pass
from .residual import audit_spike_drivenness
from .training import TrainingLog, evaluate, train

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_ENV_DIRS = {"mnist": "ORSNN_MNIST_DIR", "fashion-mnist": "ORSNN_FASHION_MNIST_DIR"}

ARTIFACTS = {
    "config": "config.cfg",
    "train_log": "train_log.csv",
    "firing_rates": "firing_rates.csv",
    "checkpoint": "checkpoint.ckpt",
    "energy": "energy.csv",
    "audit": "audit.txt",
    "summary": "summary.csv",
}


def _parse_synth_spec(spec: str):
    parts = spec.split(":")
    if len(parts) not in (6, 7):
        raise ConfigError(
            f"synth spec must be synth:KIND:N:T:H:W[:SEED], got {spec!r}")
    kind = parts[1]
    try:
        n, t, h, w = (int(v) for v in parts[2:6])
        seed = int(parts[6]) if len(parts) == 7 else 0
    except ValueError as err:
        raise ConfigError(f"non-integer extent in synth spec {spec!r}") from err
    return synth_events(kind, n, t, h, w, seed=seed)


def resolve_splits(spec: str, *splits: str):
    """The named splits of a dataset spec, each as (inputs, labels) and
    refused when empty. The spec's source is generated or read once for all
    of them: a synth spec's first 4/5 of samples are "train" and the rest
    "test", an IDX directory has a file pair per split, and an .evt file
    (plain, or gzip as .evt.gz) serves both."""
    if spec.startswith("synth:"):
        x, y = _parse_synth_spec(spec).xy()
        cut = max(1, (x.shape[0] * 4) // 5)
        halves = {"train": (x[:cut], y[:cut]), "test": (x[cut:], y[cut:])}
        read = lambda split: halves[split]
    elif spec in _ENV_DIRS:
        directory = os.environ.get(_ENV_DIRS[spec], os.path.join("data", spec))
        read = lambda split: load_idx_dir(directory, split).xy()
    elif spec.endswith((".evt", ".evt.gz")):
        events = load_events(spec).xy()
        read = lambda split: events
    elif Path(spec).is_dir():
        read = lambda split: load_idx_dir(spec, split).xy()
    else:
        raise DatasetNotFound(f"cannot resolve dataset spec {spec!r}")
    out = []
    for split in splits:
        out.append(read(split))
        if out[-1][0].shape[0] == 0:
            raise DataFormatError(f"empty dataset from {spec}")
    return out


def _apply_cli_transforms(xy, specs):
    if not specs:
        return xy
    transforms = parse_transforms(specs)
    stochastic = [t.kind for t in transforms if t.kind != "normalize"]
    if stochastic:
        raise ConfigError(
            f"only normalize is meaningful outside training, got {stochastic}")
    return augment(xy[0], transforms, np.random.default_rng(0)), xy[1]


def _split(args):
    """The --data split after --limit and --transforms."""
    return _apply_cli_transforms(
        subset(resolve_splits(args.data, args.split)[0], args.limit), args.transforms)


def _batches(network, args):
    """The --data split as a stream of the network's input batches."""
    x, step = _split(args)[0], args.batch_size
    return (network.to_input(x[i:i + step]) for i in range(0, x.shape[0], step))


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = args.data or cfg.dataset
    if args.val_data:
        splits = resolve_splits(spec, "train") + resolve_splits(args.val_data, "test")
    else:  # an .evt file serves as both splits
        splits = resolve_splits(spec, "train", "test")
    train_xy, val_xy = (subset(xy, args.limit, cfg.seed) for xy in splits)
    if args.resume:
        network, start_epoch = load_checkpoint(args.resume, expect_arch=cfg.arch)
    else:
        network, start_epoch = cfg.build(), 0
    trace_path = out_dir / ARTIFACTS["firing_rates"]
    log_path = out_dir / ARTIFACTS["train_log"]
    ckpt_path = out_dir / ARTIFACTS["checkpoint"]
    log = TrainingLog()
    prior_rows = []
    if args.resume:  # the checkpoint commits an epoch only after its log row
        rows = read_csv(log_path) if log_path.exists() else []
        epochs = csv_column(log_path, rows, "epoch", int)
        missing = sorted(set(range(start_epoch)) - set(epochs))
        if missing:
            raise DataFormatError(
                f"{log_path}: no row for epoch(s) {missing}, below the "
                f"checkpoint's epoch {start_epoch}")
        prior_rows = [r for r, e in zip(rows, epochs) if e < start_epoch]
    if args.resume and trace_path.exists():
        log.trace = FiringRateTrace.from_rows(read_csv(trace_path), trace_path)
        log.trace.epochs = log.trace.epochs[:start_epoch]
        for name in log.trace.rates:
            log.trace.rates[name] = log.trace.rates[name][:start_epoch]
    save_config(out_dir / ARTIFACTS["config"], cfg)

    def on_epoch(stats):
        flagged = ",".join(stats.flagged) or "-"
        print(f"epoch {stats.epoch}: loss {stats.train_loss:.4f} "
              f"acc {stats.train_acc:.4f} val_loss {stats.val_loss:.4f} "
              f"val_acc {stats.val_acc:.4f} "
              f"spikes/sample {stats.spikes_per_sample:.1f} "
              f"flagged {flagged} ({stats.seconds:.1f}s)", flush=True)
        # the checkpoint goes last: it is the epoch's commit record
        write_csv(log_path, prior_rows + log.rows())
        write_csv(trace_path, log.trace.to_rows(),
                  fieldnames=["epoch", "layer", "rate"])
        save_checkpoint(network, ckpt_path, epoch=stats.epoch + 1)

    train(network, train_xy, cfg.train, val_xy, log=log,
          start_epoch=start_epoch, on_epoch=on_epoch)
    if not log.epochs:
        save_checkpoint(network, ckpt_path, epoch=start_epoch)
    print(f"done: artifacts under {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    xy = _split(args)
    loss, acc = evaluate(network, xy, batch_size=args.batch_size)
    print(f"samples {xy[0].shape[0]} loss {loss:.6f} acc {acc:.6f}")
    return EXIT_OK


def cmd_audit(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    report = audit_spike_drivenness(network, _batches(network, args))
    text = report.render_text()
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with replacing(Path(args.out) / ARTIFACTS["audit"], "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.fully_spike_driven else EXIT_FAIL


def cmd_energy(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    rec = instrumented_pass(network, _batches(network, args))
    report = estimate_energy(network, rec)
    print(report.render())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_csv(Path(args.out) / ARTIFACTS["energy"], report.rows())
    return EXIT_OK


def cmd_prune(args) -> int:
    network, epoch = load_checkpoint(args.ckpt)
    trace = FiringRateTrace.from_rows(read_csv(args.trace), args.trace)
    report = detect_natural_pruning(trace, network.shortcut_lif_names(),
                                    patience=args.patience)
    print(report.render())
    if not report.flagged:
        print("nothing to prune")
        return EXIT_OK
    if not args.data:
        raise ConfigError("flagged shortcuts need --data for verification")
    pruned = apply_pruning(network, report.names(), _batches(network, args))
    save_checkpoint(pruned, args.out, epoch=epoch)
    removed = network.count_parameters() - pruned.count_parameters()
    print(f"pruned {len(report.flagged)} shortcut(s), {removed} parameters "
          f"removed; wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    log_path = run_dir / ARTIFACTS["train_log"]
    if not log_path.exists():
        raise DatasetNotFound(f"no {ARTIFACTS['train_log']} under {run_dir}")
    rows = read_csv(log_path)
    if not rows:
        raise DataFormatError(f"{log_path} has no epochs")
    last = {c: csv_column(log_path, rows, c, str)[-1]
            for c in ("val_acc", "train_acc", "spikes_per_sample", "flagged")}
    best_val = max(csv_column(log_path, rows, "val_acc", float))
    summary = {
        "epochs": len(rows),
        "best_val_acc": f"{best_val:.6f}",
        "final_val_acc": last["val_acc"],
        "final_train_acc": last["train_acc"],
        "spikes_per_sample": last["spikes_per_sample"],
        "flagged": last["flagged"],
        "mac_ops_per_sample": "",
        "ac_ops_per_sample": "",
        "energy_pj_per_sample": "",
        "spike_driven": "",
    }
    energy_path = run_dir / ARTIFACTS["energy"]
    if energy_path.exists():
        lines = read_csv(energy_path)
        klass = csv_column(energy_path, lines, "klass", str)
        ops = csv_column(energy_path, lines, "ops_per_sample", float)
        mac, ac = (sum(o for k, o in zip(klass, ops) if k == c) for c in ("MAC", "AC"))
        total = sum(csv_column(energy_path, lines, "energy_pj", float))
        summary["mac_ops_per_sample"] = f"{mac:.1f}"
        summary["ac_ops_per_sample"] = f"{ac:.1f}"
        summary["energy_pj_per_sample"] = f"{total:.3f}"
    audit_path = run_dir / ARTIFACTS["audit"]
    if audit_path.exists():
        # searched as bytes, so a file that is not UTF-8 cannot fail to decode
        verdict = audit_path.read_bytes()
        summary["spike_driven"] = "yes" if b"PASS" in verdict else "no"
    write_csv(run_dir / ARTIFACTS["summary"], [summary])
    print(",".join(summary.keys()))
    print(",".join(str(v) for v in summary.values()))
    return EXIT_OK


def cmd_synth(args) -> int:
    ds = synth_events(args.kind, args.n, args.t, args.height, args.width,
                      seed=args.seed)
    save_events(args.out, ds)
    print(f"wrote {args.out}: {len(ds)} samples, T={ds.time_steps}, "
          f"classes {int(ds.labels.max()) + 1}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_data_flags(p, required: bool = True) -> None:
    p.add_argument("--data", required=required, help="dataset spec")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--limit", type=int, default=None,
                   help="cap the number of samples")
    p.add_argument("--transforms", nargs="*", default=(),
                   help="deterministic transforms, e.g. normalize(0.5,0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orsnn",
        description="Spiking residual networks with bitwise OR shortcuts: "
                    "train, audit spike-drivenness, estimate energy, prune.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--data", help="override the config dataset spec")
    p.add_argument("--val-data", help="explicit validation dataset spec")
    p.add_argument("--out", help="override the config output directory")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="loss and accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True)
    _add_data_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("audit", help="MAC/AC spike-drivenness classification")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", help="directory for audit.txt")
    _add_data_flags(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("energy", help="energy estimate over a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", help="directory for energy.csv")
    _add_data_flags(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("prune", help="detect, verify, and apply natural pruning")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--trace", required=True, help="firing_rates.csv from a run")
    p.add_argument("--out", required=True, help="path for the pruned checkpoint")
    p.add_argument("--patience", type=int, default=5)
    _add_data_flags(p, required=False)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("report", help="aggregate a run directory into summary.csv")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic motion dataset")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path for the .evt file")
    p.set_defaults(fn=cmd_synth)

    return parser


# glibc mallopt parameters (malloc.h) and the values the CLI sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory in the process.

    A train step frees tens of MB and asks for them again in the next one.
    With glibc's defaults large arrays are fresh mmaps and the free top of
    the heap is trimmed, so each train-conv step faulted about 12,000 pages
    back in. Arrays below 32 MiB (glibc's largest mmap threshold on 64-bit)
    now come from the heap, which is trimmed only once 256 MiB of its top
    is free. Setting either value turns off glibc's dynamic mmap threshold,
    so both are set. A libc without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _exit_code_for(err: EngineError) -> int:
    if isinstance(err, (PruneRefused, NumericError)):
        return EXIT_FAIL
    return EXIT_USAGE


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("limit", "batch_size"):
            count = getattr(args, flag, None)
            if count is not None and count < 1:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {count}")
        return args.fn(args)
    except EngineError as err:
        print(f"ERROR {err.kind}: {err}", file=sys.stderr)
        return _exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
