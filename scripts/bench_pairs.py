#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write one BENCH json.

    python3 scripts/bench_pairs.py --parent OLD --change NEW --tag pr9 \\
        --claim "verify-audit instances_per_s" --seed 9100 \\
        --pairs verify-audit=10 solve-par=3 solve-edg=3 gen-prufer=3 \\
        --traced verify-audit --out BENCH_pr9.json

OLD and NEW are checkouts of the two commits (each with its own src/ and
clibench/).  Every run is ``python3 clibench/run.py --workload W --seed S``
started inside one checkout.  Pair i of a workload runs seed SEED + i on
both sides; the side that runs first alternates from pair to pair.  The
file holds every pair, each side's quartiles per end-to-end metric, how
many pairs the change won, and TRACED_RUNS ``--trace 1`` runs per side
for each --traced workload with each per-layer metric's median over them.
The traced runs of one workload use one seed per run on both sides, in
alternating order.  A run is never retried or dropped.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# one traced run per side reads too noisy for a per-layer change on a
# shared machine
TRACED_RUNS = 3
BETTER = {"setup_s": -1, "call_p50_s": -1, "vertices_per_s": 1,
          "instances_per_s": 1, "peak_rss_mb": -1, "ok_frac": 1}


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One clibench run: its result line, stamp line and comment lines."""
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return {
        "seed": seed,
        "stamp": json.loads(lines[-2]),
        "comments": [line for line in lines if line.startswith("#")],
        "tracer_warnings": [line for line in proc.stderr.splitlines()
                            if "tracer" in line],
        "result": json.loads(lines[-1]),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def medians(runs: list[dict]) -> dict:
    """Each metric's median over the runs that report it."""
    values: dict[str, list[float]] = {}
    for one in runs:
        for metric, entry in one["result"]["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
    return {metric: statistics.median(vals) for metric, vals in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--claim", default="none")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", nargs="+", required=True, help="WORKLOAD=COUNT")
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = {
        "tag": args.tag,
        "command": (
            f"python3 scripts/bench_pairs.py --parent PARENT --change CHANGE "
            f"--tag {args.tag} --claim '{args.claim}' --seed {args.seed} "
            f"--pairs {' '.join(args.pairs)} --traced {' '.join(args.traced)} "
            f"--out {args.out.name}"
        ),
        "end_to_end_command": "python3 clibench/run.py --workload WORKLOAD --seed SEED",
        "traced_command": "python3 clibench/run.py --workload WORKLOAD --seed SEED --trace 1",
        "claim": args.claim,
        "environment": f"{len(os.sched_getaffinity(0))} CPUs, Python "
                       f"{platform.python_version()}, {platform.platform()}",
        "workloads": {},
        "traced": {},
    }
    seed = args.seed
    for spec in args.pairs:
        workload, count = spec.split("=")
        pairs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run(sides[side], workload, seed, 0)["result"]
                pair[side] = {m: v["value"] for m, v in result["metrics"].items()}
                pair[f"{side}_correct"] = result["correct"]
                print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr)
            pairs.append(pair)
            seed += 1
        summary = {}
        for metric, sign in BETTER.items():
            summary[metric] = {
                side: quartiles([p[side][metric] for p in pairs]) for side in sides
            }
            summary[metric]["change_wins"] = sum(
                sign * (p["change"][metric] - p["parent"][metric]) > 0 for p in pairs
            )
            summary[metric]["pairs"] = len(pairs)
        bench["workloads"][workload] = {"pairs": pairs, "summary": summary}
    for workload in args.traced:
        runs = {side: [] for side in sides}
        for i in range(TRACED_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run(sides[side], workload, seed, 1))
            seed += 1
        bench["traced"][workload] = {
            side: {"runs": side_runs, "medians": medians(side_runs)}
            for side, side_runs in runs.items()
        }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
