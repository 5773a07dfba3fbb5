"""Command-line surface: solve, gamma-forest, gen, verify, bench.

Exit codes are part of the contract everywhere: 0 for success, 1 for any
usage, parse, validation, or internal error, and 2 reserved for a verify
run that wrote discrepancy certificates.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .corpus import FAMILIES, GeneratorSpec, gen
from .forest_domination import forest_domination
from .steiner_domination import steiner_domination
from .tree_model import (
    ParseError,
    TreeModelError,
    ValidationError,
    format_parent_file,
    parse_edge_list,
    parse_parent_file,
    position_line,
    read_ascii_file,
    relabel_bfs,
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
    # --sizes and --seed default to bench's own defaults, filled in by _cmd_bench
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="bench.csv", help="CSV output path")

    return parser


def _solve_file(path_text: str, fmt: str):
    """Parse one tree file and run the construction on it.

    A second .par root and an .edg edge closing a cycle are found after
    parsing, by validate and relabel_bfs, which know the parent entry or
    edge but not its line; the file's text names the line here.
    """
    path = Path(path_text)
    if fmt == "auto":
        suffix = path.suffix.lower()
        if suffix == ".par":
            fmt = "par"
        elif suffix == ".edg":
            fmt = "edg"
        else:
            raise TreeModelError(
                f"cannot infer format of {path.name!r}; pass --format par|edg"
            )
    text = read_ascii_file(path)
    try:
        if fmt == "par":
            parents = parse_parent_file(text)
        else:
            parents = relabel_bfs(parse_edge_list(text))[0]
        # the text is as large as the tree; the error path reads it again
        del text
        return parents, steiner_domination(parents)
    except ValidationError as exc:
        if exc.position is None:
            raise
        line = position_line(read_ascii_file(path), exc.position)
        raise ParseError(f"line {line}: {exc}") from None


def _cmd_solve(args) -> int:
    parents, res = _solve_file(args.input, args.format)
    if args.json:
        import json  # only the JSON forms need it; a text run skips the import

        payload = {
            "n": parents.n,
            "leaves": res.leaves,
            "h_vertices": res.core.to_tree,
            "gamma_h": len(res.core_dominating_set),
            "steiner_dominating_set": res.steiner_dominating_set,
            "size": res.size,
            "formula_value": res.size,  # len(leaves) + gamma_h, always the size
        }
        print(json.dumps(payload))
    else:
        print(f"n: {parents.n}")
        print(f"leaves: {' '.join(map(str, res.leaves))}")
        print(f"core vertices: {' '.join(map(str, res.core.to_tree))}")
        print(f"core domination number: {len(res.core_dominating_set)}")
        print(f"steiner dominating set: {' '.join(map(str, res.steiner_dominating_set))}")
        print(f"size: {res.size}")
        print(f"formula value: {res.size}")
    return 0


def _cmd_gamma_forest(args) -> int:
    parents = parse_parent_file(read_ascii_file(args.input))
    dom = forest_domination(parents)
    if args.json:
        import json

        payload = {
            "n": parents.n,
            "dominating_set": dom,
            "size": len(dom),
        }
        print(json.dumps(payload))
    else:
        print(f"n: {parents.n}")
        print(f"dominating set: {' '.join(map(str, dom))}")
        print(f"size: {len(dom)}")
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
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        legs=args.legs,
        leg_length=args.leglen,
        spine=args.spine,
        pattern=pattern,
    )
    text = format_parent_file(gen(spec))
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
    from .bench import DEFAULT_SEED, DEFAULT_SIZES, linearity_gate, run_bench, write_csv

    records = run_bench(
        sizes=DEFAULT_SIZES if args.sizes is None else args.sizes,
        reps=args.reps,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
    )
    write_csv(records, args.out)
    for rec in records:
        print(
            f"n={rec.n} {rec.algorithm}: median {rec.ns_total_median} ns, "
            f"{rec.ns_per_vertex} ns/vertex, peak {rec.peak_bytes} bytes"
        )
    # a breach is printed, not an exit status: small sizes are too noisy
    # to fail a run on, and scripts/run_bench.py enforces the gate
    for line in linearity_gate(records)[0]:
        print(line)
    print(f"csv written to {args.out}")
    return 0


def __getattr__(name: str):
    # cli.run_verify loads verify, and the oracles behind it, on first use
    if name == "run_verify":
        from .verify import run_verify

        return run_verify
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
    raise SystemExit(main())
