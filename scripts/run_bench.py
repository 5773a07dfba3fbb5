#!/usr/bin/env python3
"""Benchmark both linear passes at the canonical sizes and check scaling.

Writes the pinned four-column CSV and prints per-decade ratios for median
ns/vertex and peak bytes.  Exits 1 when a ratio breaches the linearity
gate (3x for time, 12x for memory per tenfold size increase).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steinerdom import DEFAULT_SIZES, linearity_gate, run_bench, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES)
    )
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", default="bench.csv")
    args = parser.parse_args()

    records = run_bench(sizes=args.sizes, reps=args.reps)
    write_csv(records, args.out)
    for rec in records:
        print(
            f"n={rec.n:>9} {rec.algorithm:12} median {rec.ns_total_median:>12} ns  "
            f"{rec.ns_per_vertex:>8} ns/vertex  peak {rec.peak_bytes:>12} bytes"
        )

    lines, ok = linearity_gate(records)
    for line in lines:
        print(line)
    print(f"csv written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
