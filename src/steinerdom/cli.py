"""Command-line surface: solve, gamma-forest, gen, verify, bench.

Exit codes are part of the contract everywhere: 0 for success, 1 for any
usage, parse, validation, or internal error, and 2 reserved for a verify
run that wrote discrepancy certificates.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import compress
from pathlib import Path

from .forest_domination import forest_domination
from .steiner_domination import steiner_domination
from .tree_model import (
    FAMILIES,
    ParseError,
    TreeModelError,
    ValidationError,
    _read_edge_tree,
    format_parent_file,
    parse_edge_list,
    parse_parent_file,
    position_line,
    relabel_bfs,
    validate,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the contract's exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="steinerdom",
        description=(
            "Minimum domination of rooted forests and Steiner domination "
            "of trees, with exact-oracle auditing and benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="Steiner dominating set of one tree")
    p.add_argument("input", help="input file (.par or .edg)")
    p.add_argument(
        "--format",
        choices=("auto", "par", "edg"),
        default="auto",
        help="input format; auto infers from the file suffix",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("gamma-forest", help="minimum dominating set of a .par forest")
    p.add_argument("input", help="input .par file (multiple roots allowed)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("gen", help="generate an instance as a .par file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, help="vertex count (shape families derive it)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--legs", type=int, help="spider: number of legs (>= 2)")
    p.add_argument("--leglen", type=int, help="spider: vertices per leg")
    p.add_argument("--spine", type=int, help="caterpillar: spine length")
    p.add_argument(
        "--pattern",
        help="caterpillar: comma-separated leg counts cycled along the spine",
    )
    p.add_argument("--out", help="output path; omitted writes to stdout")

    p = sub.add_parser("verify", help="audit the construction against exact oracles")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="random")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--count", type=int, default=200, help="random mode: sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument(
        "--cert-dir",
        dest="cert_dir",
        help="directory for certificate files (default: certificates/ next to "
        "the report, or ./certificates)",
    )

    p = sub.add_parser("bench", help="time both passes and write a CSV")
    # --sizes defaults to bench's own sizes, filled in by _cmd_bench
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", default="bench.csv", help="CSV output path")

    return parser


def _solve_file(path_text: str, fmt: str):
    """Parse one tree file and run the construction on it: (n, result).

    The file is read once, as bytes, so a pipe gets the errors a file gets;
    the lexers decode it only for text that is not canonical.  An .edg tree
    is read into the BFS's rows directly; any other .edg text goes to
    parse_edge_list and relabel_bfs, whose errors name the line.  validate
    and relabel_bfs find a second .par root or an .edg cycle after parsing
    and know its entry or edge, from which the data names the line here.
    """
    path = Path(path_text)
    if fmt == "auto":
        fmt = path.suffix.lower()[1:]
        if fmt not in ("par", "edg"):
            raise TreeModelError(
                f"cannot infer format of {path.name or path_text!r}; "
                "pass --format par|edg"
            )
    data = path.read_bytes()
    try:
        if fmt == "par":
            parents = parse_parent_file(data)
            # steiner_domination's check, made while the data can name the line
            validate(parents)
        else:
            parents = _read_edge_tree(data)
            if parents is None:
                # not a tree: the checking parser and relabel_bfs raise the
                # error that names its line
                parents = relabel_bfs(parse_edge_list(data))[0]
    except ValidationError as exc:
        if exc.position is None:
            raise
        raise ParseError(f"line {position_line(data, exc.position)}: {exc}") from None
    del data  # as large as the tree, and freed before the forest pass
    # the parent array is freed with this frame, before the output
    return parents.n, steiner_domination(parents)


# labels per write: a block's text is a few kB, and no output exists
# whole, as a str or as bytes
_BLOCK = 1000


def _suffixes() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The _BLOCK suffixes of block 0, "0" to "999", and of every later
    block, "000" to "999", in label order.  Each solve or gamma-forest call
    builds them (about 0.3 ms), so other commands do not hold them."""
    return tuple(map(str, range(_BLOCK))), tuple(map("%03d".__mod__, range(_BLOCK)))


def _write_members(write, flags, sep: str, suffixes) -> None:
    """Write ``sep.join(map(str, ...))`` of the labels whose flag is set,
    ascending, one block of _BLOCK labels at a time; a block without
    members writes nothing, not even a separator.

    Block b is one compress over its suffix table and one join, with
    ``str(b)`` in front of each suffix (nothing in front for block 0, whose
    table has no zero padding): no int and no format per member.
    """
    first, rest = suffixes
    lead = ""
    for lo in range(0, len(flags), _BLOCK):
        head, table = (str(lo // _BLOCK), rest) if lo else ("", first)
        text = (sep + head).join(compress(table, flags[lo:lo + _BLOCK]))
        if text:
            write(lead + head + text)
            lead = sep


def _write_report(as_json: bool, fields) -> None:
    """Write solve's or gamma-forest's report: (JSON key, text label, value)
    fields, as the json.dumps of one object or as one "label: value" line
    each.  A value is an int, or the byte flags of a vertex list, written
    piece by piece by _write_members, so no output exists whole."""
    write = sys.stdout.write
    suffixes = _suffixes()
    # per format: what precedes the first field, a list's separator and
    # brackets, and what ends the report; later fields follow ", " or "\n"
    if as_json:
        lead, sep, brackets, end = "{", ", ", "[]", "}\n"
    else:
        lead, sep, brackets, end = "", " ", ("", ""), "\n"
    for key, label, value in fields:
        write(f'{lead}"{key}": ' if as_json else f"{lead}{label}: ")
        lead = ", " if as_json else "\n"
        if isinstance(value, int):
            write(str(value))
        else:
            write(brackets[0])
            _write_members(write, value, sep, suffixes)
            write(brackets[1])
    write(end)


def _cmd_solve(args) -> int:
    n, res = _solve_file(args.input, args.format)
    # the set is the leaves and the core's set, disjoint, so formula_value,
    # len(leaves) + gamma_h, is always the size
    size = res.size
    _write_report(args.json, (
        ("n", "n", n),
        ("leaves", "leaves", res.is_leaf),
        ("h_vertices", "core vertices", res.in_core),
        ("gamma_h", "core domination number", size - res.is_leaf.count(1)),
        ("steiner_dominating_set", "steiner dominating set", res.in_set),
        ("size", "size", size),
        ("formula_value", "formula value", size),
    ))
    return 0


def _cmd_gamma_forest(args) -> int:
    parents = parse_parent_file(Path(args.input).read_bytes())
    # the set as byte flags, marked by the pass as steiner_domination's is,
    # for the one vertex-list writer
    in_set = bytearray(parents.n + 1)
    forest_domination(parents, into=in_set)
    _write_report(args.json, (
        ("n", "n", parents.n),
        ("dominating_set", "dominating set", in_set),
        ("size", "size", in_set.count(1)),
    ))
    return 0


def _cmd_gen(args) -> int:
    pattern = None
    if args.pattern is not None:
        try:
            pattern = tuple(int(x) for x in args.pattern.split(","))
        except ValueError:
            raise TreeModelError(
                f"pattern must be comma-separated integers, got {args.pattern!r}"
            )
    # looked up through the module, so that a wrapper set on cli.gen is
    # seen; without one, __getattr__ below loads corpus's gen
    text = format_parent_file(sys.modules[__name__].gen(
        args.family, args.n, args.seed, legs=args.legs, leg_length=args.leglen,
        spine=args.spine, pattern=pattern,
    ))
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return 0


def _cmd_verify(args) -> int:
    if args.cert_dir is not None:
        cert_dir = Path(args.cert_dir)
    elif args.report is not None:
        cert_dir = Path(args.report).resolve().parent / "certificates"
    else:
        cert_dir = Path("certificates")
    # looked up through the module, so that a wrapper set on cli.run_verify
    # is seen; without one, __getattr__ below loads verify's function
    report = sys.modules[__name__].run_verify(
        mode=args.mode,
        max_n=args.max_n,
        count=args.count,
        seed=args.seed,
        report_path=args.report,
        cert_dir=cert_dir,
    )
    print(f"mode: {report.mode}  max_n: {report.max_n}", end="")
    if report.mode == "random":
        print(f"  count: {report.count}  seed: {report.seed}")
    else:
        print()
    print(f"instances: {report.instances}  oracle checked: {report.oracle_checked}")
    print(f"validity failures: {report.validity_failures}")
    print(f"optimality failures: {report.optimality_failures}")
    print(f"discrepancies: {len(report.certificates)} (certificates in {cert_dir})")
    print(
        f"fixture {report.fixture_name}: {report.fixture_outcome} "
        f"(construction {report.fixture_algorithm_size}, "
        f"oracle {report.fixture_oracle_size})"
    )
    for message in report.internal_errors:
        print(f"internal error: {message}", file=sys.stderr)
    return report.exit_code


def _cmd_bench(args) -> int:
    from .bench import DEFAULT_SIZES, linearity_gate, run_bench, write_csv

    records = run_bench(
        sizes=DEFAULT_SIZES if args.sizes is None else args.sizes, reps=args.reps
    )
    write_csv(records, args.out)
    for rec in records:
        print(
            f"n={rec.n} {rec.algorithm}: median {rec.ns_total_median} ns, "
            f"{rec.ns_per_vertex} ns/vertex, peak {rec.peak_bytes} bytes"
        )
    # a breach is printed, not an exit status: small sizes are too noisy
    # to fail a run on, and acceptance gate 6 asserts this same verdict
    for line in linearity_gate(records)[0]:
        print(line)
    print(f"csv written to {args.out}")
    return 0


def __getattr__(name: str):
    # cli.run_verify loads verify, and the oracles behind it, on first use,
    # and cli.gen loads corpus, and random with it
    if name == "run_verify":
        from .verify import run_verify

        return run_verify
    if name == "gen":
        from .corpus import gen

        return gen
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_COMMANDS = {
    "solve": _cmd_solve,
    "gamma-forest": _cmd_gamma_forest,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}
# These commands build only acyclic data, so the cyclic collector would
# find nothing to free; it runs with them paused.  verify's indented JSON
# leaves about 2.6 kB in 33 cyclic objects per sidecar written, so paused it
# would hold about 4.7 MB for the 1,780 certificates up to n = 9, and bench
# times the passes as a library caller runs them: both keep the collector as
# they find it.
_ACYCLIC = frozenset({"solve", "gamma-forest", "gen"})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    pause = args.command in _ACYCLIC and gc.isenabled()
    if pause:
        gc.disable()
    try:
        code = _COMMANDS[args.command](args)
        # a closed stdout fails here, as this command's error, not at exit
        sys.stdout.flush()
        return code
    except (TreeModelError, OSError) as exc:
        print(f"steinerdom {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(
            f"steinerdom {args.command}: error: out of memory at the requested size",
            file=sys.stderr,
        )
        return 1
    finally:
        if pause:
            gc.enable()


if __name__ == "__main__":
    # the module form is no entry point: fail loudly instead of exiting 0
    sys.exit("steinerdom.cli is not a command; run 'python -m steinerdom' or 'steinerdom'")
