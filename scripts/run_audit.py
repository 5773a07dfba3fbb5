#!/usr/bin/env python3
"""Run the canonical three-part audit campaign and collect the artifacts.

Covers the same ground as the acceptance gate: every tree on up to 9
vertices, 2,000 random trees with n <= 16, all answered by the Steiner
oracle's bit-sliced search (n <= 18), and 2,000 more with n <= 24, where
it searches leaf supersets above n = 18.  Each part is one
``steinerdom verify`` run, which prints its own summary and writes a JSON
report and a directory of discrepancy certificates under --out.

Exit code is the worst across the parts: 1 on an internal failure or a
usage error, else 2 if discrepancy certificates were written (expected:
the shipped fixture always produces one), else 0.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steinerdom import cli

# (name, verify options): the name is the report's stem and its certificates' directory
CAMPAIGN = (
    ("exhaustive-9", "--mode exhaustive --max-n 9"),
    ("random-16", "--mode random --max-n 16 --count 2000 --seed 160004"),
    ("random-24", "--mode random --max-n 24 --count 2000 --seed 240004"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="audit_output", help="directory for reports and certificates"
    )
    out = Path(parser.parse_args(argv).out)
    codes = [
        cli.main(["verify", *options.split(), "--report", str(out / f"{name}.json"),
                  "--cert-dir", str(out / name)])
        for name, options in CAMPAIGN
    ]
    print(f"reports and certificates under {out}/")
    # the worst code: 1 over 2 over 0
    return max(codes, key=(0, 2, 1).index)


if __name__ == "__main__":
    raise SystemExit(main())
