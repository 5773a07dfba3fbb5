#!/usr/bin/env python3
"""Print the README's memory budget table: peak memory of one CLI call per row.

    python3 scripts/memory_budget.py --sizes 1000000 10000000 [--python EXE]

For each size n it writes a Prüfer tree (seed 1) and a path as .par files
with the program's own ``gen --out`` into a temporary directory, and the
Prüfer tree again as an .edg file with shuffled labels and lines.  It then
runs ``solve --json`` on each of the three files and ``gen --family prufer
--seed 1``, each call as one ``EXE -m steinerdom`` child with
``PYTHONPATH`` set to this checkout's src/.  The children run one at a
time, their output goes to /dev/null, and each one's peak resident memory
is its ``ru_maxrss`` from ``os.wait4``.  This process never reads an input,
so its own size stays small and does not leak into a child's high-water
mark; the .edg file is written by a child too, with the standard library
only (``write_edg``).  Each cell is bytes per vertex with MiB in brackets.
EXE defaults to the interpreter running this script.
"""

import argparse
import os
import random
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each row's call, given the directory that holds the inputs and n
ROWS = (
    ("`solve --json`, Prüfer `.par`",
     lambda work, n: ["solve", str(work / "prufer.par"), "--json"]),
    ("`solve --json`, path `.par`",
     lambda work, n: ["solve", str(work / "path.par"), "--json"]),
    ("`solve --json`, shuffled Prüfer `.edg`",
     lambda work, n: ["solve", str(work / "prufer.edg"), "--json"]),
    ("`gen --family prufer`",
     lambda work, n: ["gen", "--family", "prufer", "--n", str(n), "--seed", "1"]),
)


def write_edg(par: str, edg: str, seed: int = 1) -> None:
    """Write the tree of the .par file at par as an .edg file at edg, its
    labels permuted, its lines shuffled and each edge's ends swapped at
    random.  Labels are 4-byte array entries, so beside the split data
    line n = 10^7 takes about 120 MB."""
    with open(par, "rb") as fh:
        n = int(fh.readline())
        parent = array("I", map(int, fh.readline().split()))
    rng = random.Random(seed)
    label = array("I", range(1, n + 1))
    rng.shuffle(label)
    order = array("I", range(2, n + 1))
    rng.shuffle(order)
    with open(edg, "w") as out:
        out.write(f"{n}\n")
        for v in order:
            u, w = label[v - 1], label[parent[v - 1] - 1]
            out.write(f"{u} {w}\n" if rng.random() < 0.5 else f"{w} {u}\n")


def peak_kib(python: str, argv: list[str]) -> int:
    """The child's ru_maxrss (KiB on Linux); a failing call stops the script."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([python, "-m", "steinerdom", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"steinerdom {' '.join(argv)} failed")
    return usage.ru_maxrss


def label(n: int) -> str:
    """n as a power of ten where it is one."""
    k = len(str(n)) - 1
    return f"10^{k}" if n == 10**k and k > 1 else str(n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    parser.add_argument("--python", default=sys.executable)
    args = parser.parse_args()
    cells: dict[str, list[str]] = {row: [] for row, _ in ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for n in args.sizes:
            for family in ("prufer", "path"):
                peak_kib(args.python, ["gen", "--family", family, "--n", str(n), "--seed",
                                       "1", "--out", str(work / f"{family}.par")])
            subprocess.run(
                [args.python, "-c",
                 "import sys, memory_budget; memory_budget.write_edg(*sys.argv[1:])",
                 str(work / "prufer.par"), str(work / "prufer.edg")],
                cwd=Path(__file__).resolve().parent, check=True,
            )
            for row, argv in ROWS:
                kib = peak_kib(args.python, argv(work, n))
                cells[row].append(f"{kib * 1024 / n:.0f} ({kib / 1024:.1f})")
    print("| call | " + " | ".join(f"n = {label(n)}" for n in args.sizes) + " |")
    print("|---" * (len(args.sizes) + 1) + "|")
    for row, values in cells.items():
        print(f"| {row} | " + " | ".join(values) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
