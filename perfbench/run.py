"""orsnn benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/` directory. One process runs one workload: it times interpreter
start and imports in fresh processes and writes the workload's inputs from
the seed (set-up), then repeats the workload's cycle of `orsnn` commands,
each through `orsnn.cli.main(argv)`, until the time is spent, and checks
every command's exit code and outputs. Times are host-normalised against a
fixed kernel (`workloads.HostClock`). The last line of standard output is
the result as JSON. With --trace 1 the cycles alternate between untraced
and traced, and the result carries the per-module metrics of the traced
cycles (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed before numpy loads, and inherited by the import probes. One BLAS
# thread: on this engine's small GEMMs a second thread was measured no
# faster, and it doubles the exposure to other tenants of a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_CYCLES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the audit-energy reference outputs and exit")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "orsnn").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "seed": seed, "src_orsnn_lines": lines}


def repeated(clock, fn, reset=lambda: None) -> float:
    """Host-normalised seconds of fn(), median of SETUP_REPEATS calls, each
    after an untimed reset()."""
    times, before = [], clock.tick()
    for _ in range(SETUP_REPEATS):
        reset()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        after = clock.tick()
        times.append(clock.norm(wall, before, after))
        before = after
    return statistics.median(times)


def start_and_import_s(clock) -> float:
    """A fresh `python3` that imports numpy and orsnn.cli and exits, timed
    from this process: interpreter start, imports and exit."""
    argv = [sys.executable, "-c", "import numpy, orsnn.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return repeated(clock, lambda: subprocess.run(argv, env=env, check=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orsnn" / "cli.py").is_file():
        print(f"perfbench: no engine source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    t_import = time.perf_counter()
    import numpy  # noqa: F401
    from orsnn import cli
    import_s = time.perf_counter() - t_import
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    runs = ROOT / ".bench_runs"
    work = runs / f"work-{args.workload}-{os.getpid()}"
    spec = workloads.WORKLOADS[args.workload]
    runner = workloads.Runner(cli)
    if args.write_reference:
        if args.workload != "audit-energy":
            print("perfbench: --write-reference needs --workload audit-energy",
                  file=sys.stderr)
            return 2
        try:
            spec.prepare(cli, work, args.seed)
            workloads.write_reference(runner, work, HERE / "reference.json")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    clock = runner.clock
    try:
        setup_s = start_and_import_s(clock) + repeated(
            clock, lambda: spec.prepare(cli, work, args.seed),
            reset=lambda: shutil.rmtree(work, ignore_errors=True))

        tracer = Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        samples, walls = [], {"traced": [], "plain": []}
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            t0, ticks = time.perf_counter(), len(clock.ticks)
            if traced:
                tracer.install()
            try:
                sample = spec.cycle(runner, work)
            finally:
                if traced:
                    tracer.uninstall()
            walls["traced" if traced else "plain"].append(
                time.perf_counter() - t0 - sum(clock.ticks[ticks:]))
            if not traced:
                samples.append(sample)
            index += 1
            cycle_s = statistics.median(walls["plain"] + walls["traced"])
            if index >= MIN_CYCLES + (tracer is not None) and \
                    time.perf_counter() + cycle_s > deadline:
                break
        spec.finish(runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": environment(args.seed)}))
    if tracer is not None:
        runs.mkdir(exist_ok=True)
        tracer.dump(runs / f"trace-{args.workload}-seed{args.seed}.json")
        overhead = (statistics.median(walls["traced"]) /
                    statistics.median(walls["plain"]) - 1.0) * 100.0
        metrics = tracer.metrics(import_ms=import_s * 1e3, overhead_pct=overhead)
    else:
        def median(key):
            return statistics.median(v for sample in samples for v in sample[key])

        metrics = {
            "samples_per_s": (median("work"), "1/s"),
            "infer_samples_per_s": (median("infer"), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    if tracer is None:
        raw = statistics.median(v for sample in samples for v in sample["raw"])
        speed = workloads.HOST_REF_S / statistics.median(clock.ticks)
        print(f"{'(wall infer_samples_per_s)':32s} {raw:14.4f} 1/s, not normalised")
        print(f"{'(host speed)':32s} {speed:14.4f} x the reference host "
              f"({len(clock.ticks)} clock ticks)")
    print(f"{'error_rate':32s} {runner.failed / runner.attempted:14.4f} "
          f"ratio ({runner.failed} of {runner.attempted} operations failed)")
    for line in runner.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
