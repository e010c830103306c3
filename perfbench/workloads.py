"""The three benchmark workloads and their output checks.

Each workload writes its inputs from the seed in `prepare` (the `.evt`
files come from `orsnn synth`, the rest from the public API). `cycle` runs
one round of `orsnn` commands through a `Runner`, which calls
`cli.main(argv)` and counts the commands and output checks as operations.
A cycle returns its throughput samples in samples per second.

Why these three: see BENCHMARK.json and README.md. In short, train-conv
is conv-bound, train-longT is LIF- and autograd-bound, and audit-energy
runs only instrumented no-grad forwards, checkpoint loads and event IO.

Times are host-normalised. A shared machine's speed drifts by tens of
percent within seconds, so a `HostClock` kernel of fixed work is timed
before and after every timed operation, and the operation's wall time is
scaled by `HOST_REF_S` over the mean of those two kernel times.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orsnn.attention import AttentionPlan
from orsnn.checkpoint import load_checkpoint, save_checkpoint
from orsnn.config import load_config
from orsnn.data import load_events, read_csv, write_csv
from orsnn.network import build_network, frames_to_input
from orsnn.residual import JoinMode
from orsnn.tensor import no_grad

CONV_ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c32))-AP-FC4"
LONG_T_ARCH = "c4k3s1p1-BN-LIF-(OR-SEW Block(c8))-AP-FC2"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Initial weights of the train workloads. With some init seeds (63, for one)
# no spike reaches train-longT's classifier, the loss stays at ln 2 and the
# accuracy floor cannot be met, so every run starts from the same weights.
INIT_SEED = 0
HOST_REF_S = 0.06  # HostClock kernel time that counts as one second


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


class HostClock:
    """Times a kernel of fixed work that mixes what the engine does: the
    float32 GEMMs of an im2col conv forward and weight gradient at
    train-conv's block2 shapes, small elementwise numpy ops as in LIF
    updates, a Python loop, and the creation of many small linked objects
    as in an autograd graph. `norm(wall, before, after)` rescales a wall
    time taken between two ticks to a host that runs the kernel in
    HOST_REF_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.standard_normal((16384, 144), dtype=np.float32)
        self.w = rng.standard_normal((144, 32), dtype=np.float32)
        self.g = rng.standard_normal((16384, 32), dtype=np.float32)
        self.v = rng.standard_normal((32, 8, 16, 16), dtype=np.float32)
        self.ticks: list[float] = []  # kernel times, seconds
        self.last_end = 0.0

    def tick(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self.cols @ self.w
            self.cols.T @ self.g
        v = self.v
        for _ in range(250):
            v = v * 0.5 + self.v
            (v >= 1.0).astype(np.float32)
        acc = 0
        for i in range(120000):
            acc += i * i
        gc_was_on = gc.isenabled()
        gc.disable()  # so the kernel's objects do not shift the engine's collections
        nodes = [_Node(i, (i, i + 1)) for i in range(20000)]
        {id(n): n for n in nodes}
        del nodes
        if gc_was_on:
            gc.enable()
        self.last_end = time.perf_counter()
        self.ticks.append(self.last_end - t0)
        return self.ticks[-1]

    def recent(self) -> float:
        """The last kernel time if it ended under HOST_REF_S ago, so that
        back-to-back commands share a tick; else a new tick."""
        if self.ticks and time.perf_counter() - self.last_end < HOST_REF_S:
            return self.ticks[-1]
        return self.tick()

    @staticmethod
    def norm(wall: float, before: float, after: float) -> float:
        return wall * HOST_REF_S * 2.0 / (before + after)


@dataclass
class Command:
    wall: float            # seconds
    norm: float            # host-normalised seconds
    out: str               # captured stdout
    epochs: list[float]    # host-normalised seconds of each epoch, for `train`


class _Stdout(io.StringIO):
    """Captured stdout that ticks the host clock when each `epoch ...` line
    is printed: (end of epoch, kernel time, end of tick) per epoch."""

    def __init__(self, clock: HostClock):
        super().__init__()
        self.clock = clock
        self.epoch_marks: list[tuple[float, float, float]] = []

    def write(self, text):
        if text.startswith("epoch "):
            t = time.perf_counter()
            k = self.clock.tick()
            self.epoch_marks.append((t, k, time.perf_counter()))
        return super().write(text)


class Runner:
    """Runs `orsnn` commands in this process, times them against the host
    clock, and counts operations (commands and output checks) and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def run(self, argv) -> Command:
        """One command, expected to exit 0; a crash is a failed operation."""
        out, err = _Stdout(self.clock), io.StringIO()
        before = self.clock.recent()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main([str(a) for a in argv])
        except Exception:
            rc = "traceback: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        t1 = time.perf_counter()
        after = self.clock.tick()
        self.check(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")
        wall = t1 - t0 - sum(k for _, k, _ in out.epoch_marks)
        epochs, start, k0 = [], t0, before
        for end, k, resume in out.epoch_marks:
            epochs.append(self.clock.norm(end - start, k0, k))
            start, k0 = resume, k
        return Command(wall, self.clock.norm(wall, before, after), out.getvalue(), epochs)


def synth(cli, kind: str, n: int, t: int, hw: int, seed: int, path: Path) -> None:
    argv = ["synth", "--kind", kind, "--n", n, "--t", t, "--height", hw,
            "--width", hw, "--seed", seed, "--out", path]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} exited {rc}")


def _float(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


_EVAL_LINE = re.compile(r"samples (\d+) loss (\S+) acc (\S+)")


class TrainWorkload:
    """`orsnn train` on synthetic motion, then `orsnn eval` of its checkpoint.

    Every cycle trains from scratch with the same config, so all cycles do
    the same work. The seed sets the order of the samples and the shuffle;
    the initial weights are always INIT_SEED's. Training throughput is taken
    per epoch, from the times the epoch lines are printed. Each eval over
    the validation file must repeat the last logged validation loss and
    accuracy digit for digit.
    """

    def __init__(self, kind, hw, t, arch, batch, n_train, n_val, epochs,
                 evals, acc_floor):
        self.kind, self.hw, self.t, self.arch = kind, hw, t, arch
        self.batch, self.n_train, self.n_val = batch, n_train, n_val
        self.epochs, self.evals, self.acc_floor = epochs, evals, acc_floor

    def prepare(self, cli, work: Path, seed: int) -> None:
        work.mkdir(parents=True)
        synth(cli, self.kind, self.n_train, self.t, self.hw, seed, work / "train.evt")
        synth(cli, self.kind, self.n_val, self.t, self.hw, seed + 1, work / "val.evt")
        (work / "config.cfg").write_text(
            "[experiment]\n"
            f"dataset = {work / 'train.evt'}\n"
            f"arch = {self.arch}\n"
            "join = OR\nattention = T/a\nin_channels = 2\n"
            f"out_dir = {work / 'run'}\n"
            f"seed = {INIT_SEED}\n\n"
            "[train]\nlr = 0.01\n"
            f"time_steps = {self.t}\nbatch_size = {self.batch}\n"
            f"epochs = {self.epochs}\nseed = {seed}\n")
        load_config(work / "config.cfg")
        for name in ("train.evt", "val.evt"):
            load_events(work / name)

    def cycle(self, runner: Runner, work: Path) -> dict:
        run = work / "run"
        train = runner.run(["train", "--config", work / "config.cfg",
                            "--val-data", work / "val.evt"])
        rows = read_csv(run / "train_log.csv") if (run / "train_log.csv").exists() else []
        runner.check(len(rows) == self.epochs,
                     f"train_log has {len(rows)} epochs, expected {self.epochs}")
        losses = [_float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
        runner.check(bool(losses) and all(math.isfinite(v) for v in losses),
                     f"non-finite loss in train_log: {losses}")
        if self.acc_floor is not None:
            best = max((_float(r["val_acc"]) for r in rows), default=math.nan)
            runner.check(best >= self.acc_floor,
                         f"best val_acc {best} below floor {self.acc_floor}")
        last = rows[-1] if rows else {}
        infer, raw = [], []
        for _ in range(self.evals):
            cmd = runner.run(["eval", "--ckpt", run / "checkpoint.ckpt",
                              "--data", work / "val.evt", "--batch-size", self.batch])
            infer.append(self.n_val / cmd.norm)
            raw.append(self.n_val / cmd.wall)
            m = _EVAL_LINE.search(cmd.out)
            runner.check(m is not None and int(m.group(1)) == self.n_val and
                         m.group(2) == last.get("val_loss") and
                         m.group(3) == last.get("val_acc"),
                         f"eval {cmd.out.strip()!r} does not repeat the last validation "
                         f"(loss {last.get('val_loss')}, acc {last.get('val_acc')})")
        return {"work": [self.n_train / e for e in train.epochs], "infer": infer,
                "raw": raw}

    def finish(self, runner: Runner, work: Path) -> None:
        pass


class AuditWorkload:
    """eval, audit, energy, prune and report over a written checkpoint.

    The checkpoint is the train-conv network at a fixed seed with the
    join-operand BN shifts pushed up, so spikes reach every join, the other
    BN shifts raised, so spikes reach the classifier, and block2's shortcut
    forced silent, so prune has a shortcut to remove.
    The seed only permutes the samples of the `.evt` file: every output
    checked below is a per-sample sum, so the reference values hold for
    every seed.
    """

    samples = 256
    batch = 64
    evals = 2
    silent = "block2.shortcut_lif"

    def prepare(self, cli, work: Path, seed: int) -> None:
        work.mkdir(parents=True)
        (work / "run").mkdir()
        synth(cli, "moving-bar", self.samples, 8, 16, seed, work / "data.evt")
        net = build_network(CONV_ARCH, join=JoinMode.OR,
                            attention=AttentionPlan.parse("T/a"),
                            time_steps=8, in_channels=2, seed=0)
        params = dict(net.named_params())
        for name, p in params.items():
            if name.endswith((".bn2.beta", ".shortcut_bn.beta")):
                p.data[...] = 5.0
            elif name.endswith(".beta"):
                p.data[...] = 1.5
        params["block2.shortcut_bn.gamma"].data[...] = 0.0
        params["block2.shortcut_bn.beta"].data[...] = -5.0
        save_checkpoint(net, work / "model.ckpt", epoch=6)
        epochs = range(6)
        write_csv(work / "firing_rates.csv",
                  [{"epoch": e, "layer": layer,
                    "rate": 0.0 if layer == self.silent else 0.125}
                   for e in epochs for layer in net.shortcut_lif_names()],
                  fieldnames=["epoch", "layer", "rate"])
        write_csv(work / "run" / "train_log.csv",
                  [{"epoch": e, "train_loss": "1.0", "train_acc": "0.5",
                    "val_loss": "1.0", "val_acc": "0.5",
                    "spikes_per_sample": "100.0",
                    "flagged": self.silent if e == 5 else "",
                    "seconds": "1.0"} for e in epochs])
        load_events(work / "data.evt")
        load_checkpoint(work / "model.ckpt")
        read_csv(work / "firing_rates.csv")

    def outputs(self, runner: Runner, work: Path) -> tuple[dict, dict]:
        """Run the five commands once: (observed outputs, Command by name)."""
        data = ["--data", work / "data.evt", "--batch-size", self.batch]
        ckpt = ["--ckpt", work / "model.ckpt"]
        cmds, seen = {}, {}
        cmds["eval"] = runner.run(["eval", *ckpt, *data])
        m = _EVAL_LINE.search(cmds["eval"].out)
        seen["eval_samples_acc"] = [m.group(1), m.group(3)] if m else None
        cmds["audit"] = runner.run(["audit", *ckpt, *data, "--out", work / "run"])
        lines = cmds["audit"].out.strip().splitlines()
        seen["audit_verdict"] = lines[-1].split(":")[0] if lines else None
        seen["audit_classes"] = {tok[0]: tok[2] for tok in map(str.split, lines)
                                 if len(tok) == 4 and tok[2] in ("MAC", "AC")}
        cmds["energy"] = runner.run(["energy", *ckpt, *data, "--out", work / "run"])
        m = re.search(r"spikes/sample: (\S+)", cmds["energy"].out)
        seen["spikes_per_sample"] = m.group(1) if m else None
        energy_csv = work / "run" / "energy.csv"
        rows = read_csv(energy_csv) if energy_csv.exists() else []
        seen["energy_pj"] = {r["layer"]: [r["klass"], r["energy_pj"]] for r in rows}
        cmds["prune"] = runner.run(["prune", *ckpt, *data,
                                    "--trace", work / "firing_rates.csv",
                                    "--out", work / "pruned.ckpt", "--patience", 5])
        out = cmds["prune"].out.strip()
        seen["prune_line"] = out.splitlines()[-1].split(";")[0] if out else None
        runner.run(["report", "--run-dir", work / "run"])
        summary = work / "run" / "summary.csv"
        row = read_csv(summary)[0] if summary.exists() else {}
        seen["summary"] = [row.get("spike_driven"), row.get("energy_pj_per_sample"),
                           row.get("mac_ops_per_sample"), row.get("ac_ops_per_sample")]
        return seen, cmds

    def cycle(self, runner: Runner, work: Path) -> dict:
        ref = json.loads(REFERENCE.read_text())
        seen, cmds = self.outputs(runner, work)
        for key, want in ref.items():
            runner.check(seen.get(key) == want,
                         f"{key}: got {seen.get(key)!r}, reference {want!r}")
        evals = [cmds["eval"]]
        for _ in range(self.evals - 1):
            evals.append(runner.run(["eval", "--ckpt", work / "model.ckpt", "--data",
                                     work / "data.evt", "--batch-size", self.batch]))
            runner.check(evals[-1].out == evals[0].out,
                         f"eval {evals[-1].out.strip()!r} differs from the "
                         f"cycle's first {evals[0].out.strip()!r}")
        # audit, energy and prune's verification each run one instrumented pass
        passes = [cmds[name] for name in ("audit", "energy", "prune")]
        return {"work": [self.samples * len(passes) / sum(c.norm for c in passes)],
                "infer": [self.samples / c.norm for c in evals],
                "raw": [self.samples / c.wall for c in evals]}

    def finish(self, runner: Runner, work: Path) -> None:
        """Pruned and unpruned checkpoints give bit-identical logits."""
        full, _ = load_checkpoint(work / "model.ckpt")
        pruned, _ = load_checkpoint(work / "pruned.ckpt")
        runner.check(pruned.pruned_block_names() == ["block2"],
                     f"pruned blocks {pruned.pruned_block_names()}")
        x = frames_to_input(load_events(work / "data.evt").frames)
        with no_grad():
            for start in range(0, self.samples, self.batch):
                xb = x[:, start:start + self.batch]
                a = full.forward(xb, training=False, strict=False).data
                b = pruned.forward(xb, training=False, strict=False).data
                runner.check(a.tobytes() == b.tobytes(),
                             f"pruned logits differ on batch {start // self.batch}")


def write_reference(runner: Runner, work: Path, path: Path) -> None:
    """Record the audit-energy outputs the cycles are checked against."""
    seen, _ = WORKLOADS["audit-energy"].outputs(runner, work)
    if runner.failed:
        raise RuntimeError(f"reference run failed: {runner.failures}")
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


WORKLOADS = {
    "train-conv": TrainWorkload("moving-bar", 16, 8, CONV_ARCH, batch=32,
                                n_train=64, n_val=64, epochs=6, evals=6,
                                acc_floor=None),
    "train-longT": TrainWorkload("two-class-motion", 8, 32, LONG_T_ARCH, batch=8,
                                 n_train=64, n_val=64, epochs=8, evals=8,
                                 acc_floor=0.9),
    "audit-energy": AuditWorkload(),
}
