#!/usr/bin/env python3
"""Run the canonical three-part audit campaign and collect the artifacts.

Covers the same ground as the acceptance gate: every tree on up to 9
vertices, 2,000 random trees with n <= 16, all answered by the Steiner
oracle's bit-sliced search (n <= 18), and 2,000 more with n <= 24, where
it searches leaf supersets above n = 18.  Each part
writes a JSON report and a directory of discrepancy certificates under
--out.

Exit code is the worst across the parts: 0 all clean, 2 discrepancy
certificates were written (expected: the shipped fixture always produces
one), 1 on an internal failure.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steinerdom import run_verify

CAMPAIGN = (
    dict(name="exhaustive-9", mode="exhaustive", max_n=9),
    dict(name="random-16", mode="random", max_n=16, count=2000, seed=160_004),
    dict(name="random-24", mode="random", max_n=24, count=2000, seed=240_004),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="audit_output", help="directory for reports and certificates"
    )
    args = parser.parse_args()
    out = Path(args.out)

    worst = 0
    for part in CAMPAIGN:
        name = part["name"]
        report = run_verify(
            mode=part["mode"],
            max_n=part["max_n"],
            count=part.get("count", 0),
            seed=part.get("seed", 0),
            report_path=out / f"{name}.json",
            cert_dir=out / name,
        )
        print(
            f"{name}: {report.instances} instances, "
            f"{len(report.certificates)} discrepancies, "
            f"{report.validity_failures} validity failures, "
            f"{report.optimality_failures} optimality failures, "
            f"exit {report.exit_code}"
        )
        if report.exit_code == 1:
            worst = 1
        elif report.exit_code == 2 and worst != 1:
            worst = 2
    print(f"reports and certificates under {out}/")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
