"""Wall-clock and peak-memory measurement of the two linear passes.

Instances come from the uniform random tree family with a fixed seed, so
a bench run is reproducible up to machine noise.  Timing covers only the
algorithm call: generation and adjacency setup happen outside the timed
region, garbage collection is paused during the timed repetitions, and
the median over repetitions is reported to resist scheduler spikes.  The
repetitions run in rounds, each timing every (size, algorithm) once right
after an untimed warm-up call, so load that comes and goes over seconds
falls on every size alike instead of on whichever size ran in a busy
stretch.  Every instance is held for the whole run.  Peak allocation is
measured on one extra untimed run under tracemalloc, whose overhead would
otherwise poison the timings.

The per-vertex normalization makes the linearity gate scale-free: if the
passes are linear, ns_per_vertex stays flat as n grows by decades.  The
gate allows at most 3x growth of ns_per_vertex and 12x growth of peak bytes
between consecutive sizes (a decade apart at the default sizes).
"""

from __future__ import annotations

import csv
import gc
import statistics
import time
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

from .corpus import gen
from .forest_domination import forest_domination
from .steiner_domination import steiner_domination
from .tree_model import ParentArray, Record, ValidationError

CSV_COLUMNS = ("n", "algorithm", "ns_total_median", "ns_per_vertex")
DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
SEED = 987_654_321
# the linearity gate: most growth allowed between consecutive sizes
TIME_RATIO_LIMIT = 3.0
MEMORY_RATIO_LIMIT = 12.0


class BenchRecord(Record):
    """One (size, algorithm) measurement; peak_bytes is tracemalloc's
    high-water mark for one run."""

    __slots__ = ("n", "algorithm", "ns_total_median", "ns_per_vertex", "peak_bytes")


_SOLVERS = {"forest_dom": forest_domination, "steiner_dom": steiner_domination}


def _peak_bytes(algorithm: str, parents: ParentArray) -> int:
    """tracemalloc's high-water mark for one untimed run."""
    tracemalloc.start()
    try:
        _SOLVERS[algorithm](parents)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES, reps: int = 5
) -> tuple[BenchRecord, ...]:
    """Measure both passes at each size; sizes must be strictly ascending."""
    if not sizes:
        raise ValidationError("need at least one size")
    if any(s < 2 for s in sizes):
        raise ValidationError("sizes must be >= 2")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"sizes must be strictly ascending, got {list(sizes)}")
    if reps < 3:
        raise ValidationError(f"repetitions must be >= 3, got {reps}")
    trees = {n: gen("prufer", n, SEED) for n in sizes}
    cases = [(n, algorithm, trees[n]) for n in sizes for algorithm in _SOLVERS]
    times: list[list[int]] = [[] for _ in cases]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for (_, algorithm, parents), case_times in zip(cases, times):
                solve = _SOLVERS[algorithm]
                solve(parents)  # refill the caches the previous case evicted
                t0 = time.perf_counter_ns()
                solve(parents)
                t1 = time.perf_counter_ns()
                case_times.append(t1 - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    records = []
    for (n, algorithm, parents), case_times in zip(cases, times):
        median_ns = int(statistics.median(case_times))
        records.append(
            BenchRecord(
                n=n,
                algorithm=algorithm,
                ns_total_median=median_ns,
                ns_per_vertex=round(median_ns / n, 3),
                peak_bytes=_peak_bytes(algorithm, parents),
            )
        )
    return tuple(records)


def write_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Write the pinned four-column CSV (internal fields stay internal)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [rec.n, rec.algorithm, rec.ns_total_median, rec.ns_per_vertex]
            )


def linearity_gate(
    records: Sequence[BenchRecord],
) -> tuple[tuple[str, ...], bool]:
    """The linearity gate's verdict lines and whether every ratio passed.

    Records are grouped by pass and paired by consecutive sizes; a record
    whose algorithm is not a pass raises KeyError.  One line per pair,
    time first, then memory, each marked ok or BREACH against its limit.
    """
    by_pass: dict[str, list[BenchRecord]] = {algorithm: [] for algorithm in _SOLVERS}
    for rec in sorted(records, key=lambda r: r.n):
        by_pass[rec.algorithm].append(rec)
    lines = []
    ok = True
    for kind, field, limit in (
        ("time  ", "ns_per_vertex", TIME_RATIO_LIMIT),
        ("memory", "peak_bytes", MEMORY_RATIO_LIMIT),
    ):
        for algorithm, runs in by_pass.items():
            for lo, hi in zip(runs, runs[1:]):
                ratio = getattr(hi, field) / getattr(lo, field)
                passed = ratio <= limit
                ok = ok and passed
                lines.append(
                    f"{kind} {algorithm:12} {lo.n} -> {hi.n}: {ratio:5.2f}x  "
                    f"{'ok' if passed else 'BREACH'}"
                )
    return tuple(lines), ok
