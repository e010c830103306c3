"""Command-line entry point.

Commands: train, eval, audit, energy, prune, report, synth. One command
per process. Exit codes: 0 success/pass, 1 audit-or-verification failure
(including training divergence), 2 usage or environment error. Engine
errors print one machine-readable line to stderr: "ERROR {kind}: {msg}".

Dataset specs accepted by --data/--val-data and the config dataset field:
  synth:KIND:N:T:H:W[:SEED]   generated in memory (KIND per `orsnn synth`)
  path/to/set.evt             framed event container
  path/to/idx-dir             directory with IDX files (split selectable)
  mnist | fashion-mnist       IDX directory from $ORSNN_MNIST_DIR /
                              $ORSNN_FASHION_MNIST_DIR, else ./data/<name>
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, save_config
from .data import (SYNTH_KINDS, augment, load_events, load_idx_dir,
                   parse_transforms, read_csv, replacing, save_events,
                   synth_events, write_csv)
from .errors import (AuditError, ConfigError, DataFormatError, DatasetNotFound,
                     EngineError, NumericError, PruneRefused)
from .metrics import (FiringRateTrace, apply_pruning, detect_natural_pruning,
                      estimate_energy)
from .record import instrumented_pass
from .residual import audit_spike_drivenness
from .training import TrainingLog, _to_time_major, evaluate, train

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


def _nonempty(x: np.ndarray, y: np.ndarray, origin: str):
    if x.shape[0] == 0:
        raise DataFormatError(f"empty dataset from {origin}")
    return x, y


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


def resolve_split(spec: str, split: str = "test"):
    """One split of a dataset spec as (inputs, labels) arrays."""
    if spec.startswith("synth:"):
        ds = _parse_synth_spec(spec)
        train_xy, test_xy = _synth_split(ds)
        return _nonempty(*(train_xy if split == "train" else test_xy), spec)
    if spec in _ENV_DIRS:
        directory = os.environ.get(_ENV_DIRS[spec], os.path.join("data", spec))
        return _nonempty(*load_idx_dir(directory, split).xy(), spec)
    path = Path(spec)
    if path.suffix == ".evt":
        return _nonempty(*load_events(path).xy(), spec)
    if path.is_dir():
        return _nonempty(*load_idx_dir(path, split).xy(), spec)
    raise DatasetNotFound(f"cannot resolve dataset spec {spec!r}")


def _synth_split(ds):
    n = len(ds)
    cut = max(1, (n * 4) // 5)
    x, y = ds.xy()
    return (x[:cut], y[:cut]), (x[cut:], y[cut:])


def resolve_train_val(spec: str):
    """Train and validation splits for the train command; validation may
    be None when the spec is a single event file."""
    if spec.startswith("synth:"):
        train_xy, test_xy = _synth_split(_parse_synth_spec(spec))
        return _nonempty(*train_xy, spec), _nonempty(*test_xy, spec)
    if spec in _ENV_DIRS or Path(spec).is_dir():
        return (resolve_split(spec, "train"), resolve_split(spec, "test"))
    if Path(spec).suffix == ".evt":
        return resolve_split(spec), None
    raise DatasetNotFound(f"cannot resolve dataset spec {spec!r}")


def _limit(xy, n: int | None, seed: int = 0):
    if xy is None or n is None or n >= xy[0].shape[0]:
        return xy
    order = np.random.default_rng(seed).permutation(xy[0].shape[0])[:n]
    order = np.sort(order)
    return xy[0][order], xy[1][order]


def _apply_cli_transforms(xy, specs):
    if xy is None or not specs:
        return xy
    transforms = parse_transforms(specs)
    stochastic = [t.kind for t in transforms if t.kind != "normalize"]
    if stochastic:
        raise ConfigError(
            f"only normalize is meaningful outside training, got {stochastic}")
    return augment(xy[0], transforms, np.random.default_rng(0)), xy[1]


def _batches(x: np.ndarray, time_steps: int, batch_size: int):
    for start in range(0, x.shape[0], batch_size):
        yield _to_time_major(x[start:start + batch_size], time_steps)


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = args.data or cfg.dataset
    train_xy, val_xy = resolve_train_val(spec)
    if args.val_data:
        val_xy = resolve_split(args.val_data)
    train_xy = _limit(train_xy, args.limit, cfg.seed)
    val_xy = _limit(val_xy, args.limit, cfg.seed)
    if args.resume:
        network, start_epoch = load_checkpoint(args.resume, expect_arch=cfg.arch)
    else:
        network, start_epoch = cfg.build(), 0
    save_config(out_dir / ARTIFACTS["config"], cfg)
    trace_path = out_dir / ARTIFACTS["firing_rates"]
    log_path = out_dir / ARTIFACTS["train_log"]
    ckpt_path = out_dir / ARTIFACTS["checkpoint"]
    log = TrainingLog()
    prior_rows = []
    if args.resume and trace_path.exists():
        log.trace = FiringRateTrace.from_rows(read_csv(trace_path))
        log.trace.epochs = log.trace.epochs[:start_epoch]
        for name in log.trace.rates:
            log.trace.rates[name] = log.trace.rates[name][:start_epoch]
    if args.resume and log_path.exists():
        prior_rows = [r for r in read_csv(log_path) if int(r["epoch"]) < start_epoch]

    def on_epoch(stats):
        flagged = ",".join(stats.flagged) or "-"
        print(f"epoch {stats.epoch}: loss {stats.train_loss:.4f} "
              f"acc {stats.train_acc:.4f} val_loss {stats.val_loss:.4f} "
              f"val_acc {stats.val_acc:.4f} "
              f"spikes/sample {stats.spikes_per_sample:.1f} "
              f"flagged {flagged} ({stats.seconds:.1f}s)", flush=True)
        save_checkpoint(network, ckpt_path, epoch=stats.epoch + 1)
        write_csv(log_path, prior_rows + log.rows())
        write_csv(trace_path, log.trace.to_rows(),
                  fieldnames=["epoch", "layer", "rate"])

    train(network, train_xy, cfg.train, val_xy, log=log,
          start_epoch=start_epoch, on_epoch=on_epoch)
    if not log.epochs:
        save_checkpoint(network, ckpt_path, epoch=start_epoch)
    print(f"done: artifacts under {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    xy = _apply_cli_transforms(
        _limit(resolve_split(args.data, args.split), args.limit), args.transforms)
    loss, acc = evaluate(network, xy, batch_size=args.batch_size)
    print(f"samples {xy[0].shape[0]} loss {loss:.6f} acc {acc:.6f}")
    return EXIT_OK


def cmd_audit(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    xy = _apply_cli_transforms(
        _limit(resolve_split(args.data, args.split), args.limit), args.transforms)
    batches = list(_batches(xy[0], network.time_steps, args.batch_size))
    report = audit_spike_drivenness(network, batches, mode="permissive")
    text = report.render_text()
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with replacing(Path(args.out) / ARTIFACTS["audit"], "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.fully_spike_driven else EXIT_FAIL


def cmd_energy(args) -> int:
    network, _ = load_checkpoint(args.ckpt)
    xy = _apply_cli_transforms(
        _limit(resolve_split(args.data, args.split), args.limit), args.transforms)
    rec = instrumented_pass(
        network, _batches(xy[0], network.time_steps, args.batch_size))
    report = estimate_energy(network, rec)
    print(report.render())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_csv(Path(args.out) / ARTIFACTS["energy"], report.rows())
    return EXIT_OK


def cmd_prune(args) -> int:
    network, epoch = load_checkpoint(args.ckpt)
    trace = FiringRateTrace.from_rows(read_csv(args.trace))
    report = detect_natural_pruning(trace, network.shortcut_lif_names(),
                                    patience=args.patience)
    print(report.render())
    if not report.flagged:
        print("nothing to prune")
        return EXIT_OK
    if not args.data:
        raise ConfigError("flagged shortcuts need --data for verification")
    xy = _apply_cli_transforms(
        _limit(resolve_split(args.data, args.split), args.limit), args.transforms)
    batches = list(_batches(xy[0], network.time_steps, args.batch_size))
    pruned = apply_pruning(network, report.names(), batches)
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
    last = rows[-1]
    best_val = max(float(r["val_acc"]) for r in rows)
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
        mac = sum(float(r["ops_per_sample"]) for r in lines if r["klass"] == "MAC")
        ac = sum(float(r["ops_per_sample"]) for r in lines if r["klass"] == "AC")
        total = sum(float(r["energy_pj"]) for r in lines)
        summary["mac_ops_per_sample"] = f"{mac:.1f}"
        summary["ac_ops_per_sample"] = f"{ac:.1f}"
        summary["energy_pj_per_sample"] = f"{total:.3f}"
    audit_path = run_dir / ARTIFACTS["audit"]
    if audit_path.exists():
        text = audit_path.read_text()
        summary["spike_driven"] = "yes" if "PASS" in text else "no"
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


def _exit_code_for(err: EngineError) -> int:
    if isinstance(err, (AuditError, PruneRefused, NumericError)):
        return EXIT_FAIL
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as err:
        print(f"ERROR {err.kind}: {err}", file=sys.stderr)
        return _exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
