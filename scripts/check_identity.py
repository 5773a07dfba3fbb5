#!/usr/bin/env python3
"""Run the same steinerdom calls in two checkouts and diff everything they write.

    python3 scripts/check_identity.py --parent OLD --change NEW [--python EXE]
    python3 scripts/check_identity.py --write-digests [--python EXE]

OLD and NEW are checkouts (each with its own src/).  Every call is
``EXE -m steinerdom ...`` with ``PYTHONPATH=<checkout>/src``, run in a fresh
directory that holds copies of the same input files, which this script
writes itself.  Both sides run in the same path, one after the other, so
that a path a call prints reads the same.  For each call it compares
stdout, stderr, the exit code and every file the call wrote, and prints
one line: ``same`` or ``DIFF`` with what differed.  Each solve input is
also run once more through a pipe on stdin, as ``solve /dev/stdin
--format par|edg < FILE``.  It exits 1 if any call differed.  EXE
defaults to the interpreter running this script; the CLI needs only the
standard library.

--write-digests runs the calls once, in the checkout that holds this
script, and writes tests/golden_digests.json there: per call, the exit
code and the SHA-256 of stdout, stderr and each written file, with the run
directory's path (which ``verify --report`` prints) replaced by RUN_TOKEN.
tests/test_golden_digests.py reruns the calls against that manifest.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_digests.json"
RUN_TOKEN = b"<run>"

FAMILIES = {
    "path": ["--n", "300"],
    "star": ["--n", "300"],
    "spider": ["--legs", "4", "--leglen", "5"],
    "caterpillar": ["--spine", "40", "--pattern", "2,0,1"],
    "binary": ["--n", "300"],
    "prufer": ["--n", "2000", "--seed", "3"],
    "random_parent": ["--n", "300", "--seed", "3"],
}


# The inputs that solve must reject with exit 1 and a line-numbered error.
# solve reads its input once and names an error's line from that text, so
# a pipe gets the error a file gets; the .edg files cover each check of the
# checking parser that runs on an .edg that lexes but holds no tree.
EXIT_1 = {
    "non-ascii.par": "3\n0 1 é\n".encode(),
    "bare-cr.par": b"3\n0 1\r1\n",
    "second-root.par": b"3\n0 1 0\n",
    "over-cap.par": b"2\n0 " + b"1" * 5000 + b"\n",
    "duplicate-edge.edg": b"4\n1 2\n2 3\n2 1\n",
    "too-few-lines.edg": b"3\n1 2\n",
    "too-many-lines.edg": b"3\n1 2\n2 3\n1 3\n",
    "one-label.edg": b"3\n1 2\n3\n",
    "labels-split-wrongly.edg": b"3\n1 2 3\n4\n",
    "three-labels-balanced-by-one.edg": b"3\n1 2 3\n2\n",
    "self-loop.edg": b"3\n1 1\n2 3\n",
    "label-0.edg": b"3\n0 1\n1 2\n",
    "label-n-plus-1.edg": b"3\n1 2\n2 4\n",
    "label-10-100.edg": f"3\n1 2\n2 {10**100}\n".encode(),
    "cycle.edg": b"5\n4 5\n\n2 1\n3 2\n1 3\n",
    "blank-lines-crlf.edg": b"\r\n3\r\n\r\n1 2\r\n\r\n2 1\r\n",
    "sign.edg": b"3\n1 2\n2 +3\n",
    "non-ascii.edg": "3\n1 2\n2 \uff13\n".encode(),
}


def untidy(text: str, rng: random.Random) -> bytes:
    """text's tokens on the same non-blank lines, out of the canonical form
    that the lexer reads with the json scanner: separated by tabs, single
    or doubled spaces, with a leading zero on the first token after the
    count and a blank line of spaces before about one line in twenty."""
    out = []
    for i, line in enumerate(text.splitlines()):
        tokens = line.split()
        if i == 1:
            tokens[0] = "0" + tokens[0]
        if i and rng.random() < 0.05:
            out.append("  ")
        out.append(tokens[0] + "".join(rng.choice(("\t", " ", "  ")) + tok
                                       for tok in tokens[1:]))
    return ("\n".join(out) + "\n").encode()


def inputs() -> dict[str, bytes]:
    """The input files, by name: valid trees and forests, then EXIT_1."""
    rng = random.Random(14)
    n = 2000
    parent = [0] + [rng.randint(1, i) for i in range(1, n)]
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [(label[v - 1], label[p - 1]) for v, p in enumerate(parent, start=1) if p]
    rng.shuffle(edges)
    fixture = ROOT / "fixtures" / "theorem1-audit-8.par"
    # solve writes its vertex lists in blocks of 1000 labels: these outputs
    # cross block seams
    big = 50_000
    star = [(1 + big // 2, v) for v in range(1, big + 1) if v != 1 + big // 2]
    rng.shuffle(star)
    forest = [rng.randint(0, i) for i in range(2 * big)]
    # a spine of 2^15 + 1 vertices, two leaves on each: no core, and no leaf
    # among the first 32 blocks of labels
    spine = (1 << 15) + 1
    caterpillar = [*range(spine), *(v for v in range(1, spine + 1) for _ in range(2))]
    huge = 120_000
    tree_par = f"{n}\n{' '.join(map(str, parent))}\n"
    tree_edg = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path_par = f"{huge}\n{' '.join(map(str, range(huge)))}\n"
    star_edg = f"{big}\n" + "".join(f"{u} {v}\n" for u, v in star)
    return {
        "fixture.par": fixture.read_bytes(),
        "tree.par": tree_par.encode(),
        "tree.edg": tree_edg.encode(),
        "tree-untidy.par": untidy(tree_par, rng),
        "tree-untidy.edg": untidy(tree_edg, rng),
        # over one 16 KiB chunk, so that the int() lexer cuts untidy text
        "path-120k-untidy.par": untidy(path_par, rng),
        "star-untidy.edg": untidy(star_edg, rng),
        "forest.par": b"9\n0 1 0 3 3 0 6 7 0\n",
        # rooted at an end, so the root is a leaf
        "path.par": f"{big}\n{' '.join(map(str, range(big)))}\n".encode(),
        "star.par": f"{big}\n0{' 1' * (big - 1)}\n".encode(),
        # lists with members on both sides of label 10^5, where a block's
        # number gains a digit
        "path-120k.par": path_par.encode(),
        "star-120k.par": f"{huge}\n0{' 1' * (huge - 1)}\n".encode(),
        "caterpillar.par": (f"{len(caterpillar)}\n{' '.join(map(str, caterpillar))}\n"
                            .encode()),
        "star.edg": star_edg.encode(),
        "large-forest.par": f"{2 * big}\n{' '.join(map(str, forest))}\n".encode(),
        **EXIT_1,
    }


SOLVE_INPUTS = ("fixture.par", "tree.par", "tree.edg", "tree-untidy.par",
                "tree-untidy.edg", "path.par", "star.edg", "star.par", "caterpillar.par",
                "path-120k.par", "star-120k.par", "path-120k-untidy.par",
                "star-untidy.edg")


def calls() -> list[tuple[list[str], str | None]]:
    """Every call as (argv, the input file piped to its stdin or None)."""
    out = []
    for name in SOLVE_INPUTS:
        out += [["solve", name], ["solve", name, "--json"]]
    for name in ("forest.par", "large-forest.par", "path-120k.par"):
        out += [["gamma-forest", name], ["gamma-forest", name, "--json"]]
    out += [["gen", "--family", family, *args] for family, args in FAMILIES.items()]
    out.append(["gen", "--family", "prufer", "--n", "500", "--out", "out/gen.par"])
    out.append(["verify", "--mode", "exhaustive", "--max-n", "7", "--report", "report.json"])
    out.append(["verify", "--mode", "random", "--max-n", "16", "--count", "60",
                "--seed", "1", "--report", "report.json"])
    # trees with 19 <= n <= 24 reach the Steiner oracle's leaf-superset search
    out.append(["verify", "--mode", "random", "--max-n", "24", "--count", "200",
                "--seed", "1", "--report", "report.json"])
    # usage errors: one past the Steiner oracle's cap, and a --n that gen
    # checks against the size a spider's or caterpillar's shape derives
    out.append(["verify", "--mode", "random", "--max-n", "25", "--count", "5"])
    out += [["gen", "--family", "spider", "--legs", "4", "--leglen", "5", "--n", n]
            for n in ("21", "22")]
    out.append(["gen", "--family", "caterpillar", "--spine", "40", "--pattern", "2,0,1",
                "--n", "7"])
    # and the --n check of every family that takes one: missing, and below 1
    out += [["gen", "--family", "prufer"], ["gen", "--family", "path", "--n", "0"]]
    out += [["solve", name] for name in EXIT_1]
    out = [(argv, None) for argv in out]
    out += [(["solve", "/dev/stdin", "--format", name.rpartition(".")[2]], name)
            for name in (*SOLVE_INPUTS, *EXIT_1)]
    return out


def label(argv: list[str], stdin: str | None) -> str:
    """A call as it is printed and keyed in the manifest."""
    return f"{' '.join(argv)}{'' if stdin is None else ' < ' + stdin}"


def run(checkout: Path, python: str, argv: list[str], stdin: str | None,
        files: dict[str, bytes], work: Path) -> tuple:
    """One call in a fresh directory, with the input file named by stdin
    written to a pipe on its stdin: (stdout, stderr, exit code, written
    files)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name, data in files.items():
        (work / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([python, "-m", "steinerdom", *argv], cwd=work, env=env,
                          input=b"" if stdin is None else files[stdin],
                          capture_output=True, timeout=600)
    written = {
        name: path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file() and (name := str(path.relative_to(work))) not in files
    }
    return proc.stdout, proc.stderr, proc.returncode, written


def digests(result: tuple, work: Path) -> dict:
    """One call's manifest entry: its exit code and the SHA-256 of stdout,
    stderr and each written file, after the run directory's path is
    replaced by RUN_TOKEN."""
    stdout, stderr, code, written = result
    run_dir = os.fsencode(work.resolve())

    def sha(data: bytes) -> str:
        return hashlib.sha256(data.replace(run_dir, RUN_TOKEN)).hexdigest()

    return {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr),
            "files": {name: sha(data) for name, data in written.items()}}


def run_digests(checkout: Path, python: str) -> dict[str, dict]:
    """Every call's manifest entry, keyed by its label, in call order."""
    files = inputs()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for argv, stdin in calls():
            out[label(argv, stdin)] = digests(
                run(checkout, python, argv, stdin, files, work), work)
    return out


def write_digests(python: str) -> None:
    manifest = {"python": platform.python_version(), "run_token": RUN_TOKEN.decode(),
                "calls": run_digests(ROOT, python)}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest['calls'])} calls written to {MANIFEST}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--write-digests", action="store_true",
                        help="write tests/golden_digests.json from this checkout")
    parser.add_argument("--python", default=sys.executable)
    args = parser.parse_args()
    if args.write_digests:
        write_digests(args.python)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required without --write-digests")
    files = inputs()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, stdin in calls():
            old, new = (run(side.resolve(), args.python, argv, stdin, files,
                            Path(tmp) / "work")
                        for side in (args.parent, args.change))
            what = [part for part, a, b in zip(("stdout", "stderr", "exit code"), old, new)
                    if a != b]
            what += [f"file {name}" for name in sorted(old[3].keys() | new[3].keys())
                     if old[3].get(name) != new[3].get(name)]
            differ += bool(what)
            status = f"DIFF ({', '.join(what)})" if what else "same"
            print(f"{status}  exit {old[2]}  {len(old[3])} files  "
                  f"steinerdom {label(argv, stdin)}", flush=True)
    print(f"{differ} of {len(calls())} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
