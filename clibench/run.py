#!/usr/bin/env python3
"""Closed-loop benchmark of the steinerdom command line.

Usage, from the root of a checkout:

    python3 clibench/run.py --workload solve-par --seed 1 --seconds 20 --trace 0
    python3 clibench/run.py --workload all

Each workload has one client.  Every call is a fresh
``python -m steinerdom ...`` child process run from ``src/``, and the
client waits for it before sending the next, so at most one busy process
exists.  ``--trace 0`` measures the end-to-end metrics with tracing off and
the garbage collector on, as users run the program.  ``--trace 1`` runs each
input once more in process under the span tracer of ``tracer.py`` and
reports the per-layer metrics instead.

Output: one line per metric (name, value, unit), a JSON line stamping the
environment and the input hashes, and as the last line a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calls import ROOT, RUN_DEADLINE_S, SRC, Ledger, Spawner, fresh_dir  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

# (name, unit, better, bound): the end-to-end metrics, every workload.
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("call_p50_s", "s", "lower", 0.24),
    ("vertices_per_s", "1/s", "higher", 0.24),
    ("instances_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.05),
]
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 3.0


def measure(name: str, seed: int, seconds: float, sizes: Sizes, work: Path, ledger: Ledger,
            spawner: Spawner):
    """Set up SETUP_REPEATS times, then run whole rounds for ``seconds``.

    Times are scaled to nominal machine speed: ``reference.py`` runs before
    each set-up and before every REFERENCE_EVERY_S of timed calls, and each
    time is divided by the slowdown the latest reference run showed.  On a
    shared machine whose speed drifts by tens of percent over minutes, this
    keeps runs comparable; the raw medians are printed beside the result.

    Whole rounds time every input equally often.  Each input's calls are
    reduced to their median first, so neither a slow outlier nor the mix of
    fast and slow inputs moves the result: ``call_p50_s`` is the median of
    those per-input medians, and the rates divide one round's vertices or
    trees by their sum.  Returns the metrics and the input hashes.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_REPEATS):
        fresh_dir(work)
        speed = spawner.speed(work, deadline)
        start = time.perf_counter()
        rnd = WORKLOADS[name](work, seed, sizes)
        warm = spawner.call(rnd.calls[0], work, deadline)
        setups.append((time.perf_counter() - start) / speed)
        ledger.record(rnd.calls[0], warm.exit_code, warm.stdout, warm.stderr)
    scaled: list[list[float]] = [[] for _ in rnd.calls]
    raw: list[list[float]] = [[] for _ in rnd.calls]
    peak_rss = 0.0
    spent = 0.0
    since_reference = REFERENCE_EVERY_S
    while spent < seconds and time.monotonic() < deadline:
        for i, call in enumerate(rnd.calls):
            if since_reference >= REFERENCE_EVERY_S:
                speed = spawner.speed(work, deadline)
                since_reference = 0.0
            res = spawner.call(call, work, deadline)
            raw[i].append(res.wall_s)
            scaled[i].append(res.wall_s / speed)
            spent += res.wall_s
            since_reference += res.wall_s
            peak_rss = max(peak_rss, res.rss_mb)
            ledger.record(call, res.exit_code, res.stdout, res.stderr)
    medians = [statistics.median(samples) for samples in scaled]
    metrics = {
        "setup_s": statistics.median(setups),
        "call_p50_s": statistics.median(medians),
        "vertices_per_s": sum(c.vertices for c in rnd.calls) / sum(medians),
        "instances_per_s": sum(c.instances for c in rnd.calls) / sum(medians),
        "peak_rss_mb": peak_rss,
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    raw_medians = [statistics.median(samples) for samples in raw]
    print(f"# {name}: {len(rnd.calls)} x {len(raw[0])} timed calls, {spent:.3f} s; raw "
          f"call_p50_s {statistics.median(raw_medians):.4f}, vertices_per_s "
          f"{sum(c.vertices for c in rnd.calls) / sum(raw_medians):.1f}")
    return metrics, rnd.input_sha256


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "steinerdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(name: str, seed: int, trace: int, hashes: dict[str, str]) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "input_sha256": hashes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, sizes: Sizes = Sizes()) -> dict:
    """One benchmark run; prints the metric lines and returns the result.

    The benchmark's own collector is off: its large input lists would
    otherwise make it pause for seconds.  The traced run turns it back on
    around each in-process call of the program.
    """
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    ledger = Ledger()
    gc.disable()
    try:
        with Spawner() as spawner:
            fresh_dir(work)
            if trace:
                import tracer

                metrics, units, hashes = tracer.traced_run(name, seed, sizes, work, ledger, spawner)
            else:
                metrics, hashes = measure(name, seed, seconds, sizes, work, ledger, spawner)
                units = {m: unit for m, unit, _, _ in E2E}
    finally:
        gc.enable()
        shutil.rmtree(work, ignore_errors=True)
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    for error in ledger.errors:
        print(f"# failed call: {error}")
    print(json.dumps(stamp(name, seed, trace, hashes), sort_keys=True))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinerdom" / "cli.py").is_file():
        print(f"clibench: no steinerdom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
