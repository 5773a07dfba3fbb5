"""Wall-clock and peak-memory measurement of the two linear passes.

Instances come from the uniform random tree family with a fixed seed, so
a bench run is reproducible up to machine noise.  Timing covers only the
algorithm call: generation and adjacency setup happen outside the timed
region, garbage collection is paused during the timed repetitions, and
the median over repetitions is reported to resist scheduler spikes.  Peak
allocation is measured on one extra untimed repetition under tracemalloc,
whose overhead would otherwise poison the timings.

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

from .corpus import GeneratorSpec, gen
from .forest_domination import forest_domination
from .steiner_domination import steiner_domination
from .tree_model import ParentArray, Record, ValidationError

CSV_COLUMNS = ("n", "algorithm", "ns_total_median", "ns_per_vertex")
ALGORITHMS = ("forest_dom", "steiner_dom")
DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
DEFAULT_SEED = 987_654_321
# the linearity gate: most growth allowed between consecutive sizes
TIME_RATIO_LIMIT = 3.0
MEMORY_RATIO_LIMIT = 12.0


class BenchRecord(Record):
    """One (size, algorithm) measurement; peak_bytes is tracemalloc's
    high-water mark for one run."""

    __slots__ = ("n", "algorithm", "ns_total_median", "ns_per_vertex", "peak_bytes")


def _measure(algorithm: str, parents: ParentArray, reps: int) -> tuple[int, int]:
    """(median ns, peak bytes) over reps timed runs plus one memory run."""
    solve = forest_domination if algorithm == "forest_dom" else steiner_domination
    solve(parents)  # warm caches and any lazy allocation before timing
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            solve(parents)
            t1 = time.perf_counter_ns()
            times.append(t1 - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    tracemalloc.start()
    try:
        solve(parents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return int(statistics.median(times)), peak


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = 5,
    seed: int = DEFAULT_SEED,
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
    records = []
    for n in sizes:
        parents = gen(GeneratorSpec("prufer", n=n, seed=seed))
        for algorithm in ALGORITHMS:
            median_ns, peak = _measure(algorithm, parents, reps)
            records.append(
                BenchRecord(
                    n=n,
                    algorithm=algorithm,
                    ns_total_median=median_ns,
                    ns_per_vertex=round(median_ns / n, 3),
                    peak_bytes=peak,
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


def consecutive_ratios(
    records: Sequence[BenchRecord], field: str = "ns_per_vertex"
) -> tuple[tuple[str, int, int, float], ...]:
    """(algorithm, smaller n, larger n, ratio) for consecutive sizes.

    field selects what is compared: ns_per_vertex for the time-linearity
    gate, peak_bytes for the memory-growth gate.
    """
    if field not in ("ns_per_vertex", "peak_bytes"):
        raise ValidationError(f"unsupported ratio field {field!r}")
    by_algo: dict[str, list[BenchRecord]] = {a: [] for a in ALGORITHMS}
    for rec in records:
        by_algo[rec.algorithm].append(rec)
    ratios = []
    for algorithm in ALGORITHMS:
        runs = sorted(by_algo[algorithm], key=lambda r: r.n)
        for lo, hi in zip(runs, runs[1:]):
            lo_v = getattr(lo, field)
            hi_v = getattr(hi, field)
            ratios.append((algorithm, lo.n, hi.n, hi_v / lo_v))
    return tuple(ratios)


def linearity_gate(
    records: Sequence[BenchRecord],
) -> tuple[tuple[str, ...], bool]:
    """The linearity gate's verdict lines and whether every ratio passed.

    One line per consecutive pair of sizes and algorithm, time first, then
    memory, each marked ok or BREACH against its limit.
    """
    lines = []
    ok = True
    for kind, field, limit in (
        ("time  ", "ns_per_vertex", TIME_RATIO_LIMIT),
        ("memory", "peak_bytes", MEMORY_RATIO_LIMIT),
    ):
        for algorithm, lo, hi, ratio in consecutive_ratios(records, field):
            passed = ratio <= limit
            ok = ok and passed
            lines.append(
                f"{kind} {algorithm:12} {lo} -> {hi}: {ratio:5.2f}x  "
                f"{'ok' if passed else 'BREACH'}"
            )
    return tuple(lines), ok
