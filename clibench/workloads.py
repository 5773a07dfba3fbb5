"""The four workloads: their input files, CLI calls and output checks.

Each workload turns a seed into a *round*: a list of calls, one per input,
that the closed loop repeats.  Every call carries the check that decides
whether its output is correct; checks run outside the timed interval.

* ``solve-par``: ``solve --json`` on four ``.par`` files (Prüfer tree, path,
  star, caterpillar).  No relabelling, so ``parse_parent_file`` and
  ``steiner_domination`` dominate; the core is about n on the path and empty
  on the star and caterpillar, so the forest pass runs on one file and idles
  on others while the parse cost stays flat.
* ``solve-edg``: ``solve --json`` on three ``.edg`` files (Prüfer tree, path,
  star) with permuted labels and shuffled lines, so ``parse_edge_list`` and
  ``relabel_bfs`` take most of the time; the path is n deep and the star
  sorts n - 1 neighbours of one vertex.
* ``gen-prufer``: ``gen --family prufer`` for seeds derived from the
  workload seed: the write side of ``tree_model`` (Prüfer decode,
  ``EdgeList`` checks, ``relabel_bfs``, ``format_parent_file``), no solving.
* ``verify-audit``: ``verify`` alternating every tree up to n = 7 with a
  random sample up to n = 16: hundreds of tiny trees, so the oracles and the
  per-call overhead of the solvers dominate, the opposite of solve-par.  The
  sample's seed is fixed: the handful of n = 15 or 16 trees in a sample
  dominate its cost, which moved the call time by about 12% between seeds.

A call takes about half a second on a 2-CPU machine, so that a run can
time about forty calls: single calls of identical work were measured
30-40% apart (interquartile range over median) on a shared machine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from math import factorial
from pathlib import Path
from typing import Callable

import inputs


@dataclass(frozen=True)
class Sizes:
    par_n: int = 250_000
    edg_n: int = 50_000
    gen_n: int = 50_000
    gen_seeds: int = 4
    verify_exhaustive_n: int = 7
    verify_random_n: int = 16
    verify_count: int = 60

    def reduced(self) -> Sizes:
        """About a tenth of the work, for the tracemalloc pass."""
        return replace(self, par_n=max(3, self.par_n // 10), edg_n=max(3, self.edg_n // 10),
                       gen_n=max(3, self.gen_n // 10), verify_count=max(1, self.verify_count // 10),
                       verify_exhaustive_n=max(2, self.verify_exhaustive_n - 2))


@dataclass
class Call:
    """One CLI invocation of a round and the check of its output."""

    label: str
    argv: list[str]  # arguments after ``python -m steinerdom``
    vertices: int  # vertices the call processes
    instances: int  # trees the call processes
    expect_exit: int
    check: Callable[[bytes], str | None]  # stdout -> error message or None
    shape: str | None = None  # solve calls: the tree shape, for per-shape layers
    # solve calls: the input's hash; an output that passed once for the same
    # input passes again without a second check
    key: str | None = None


@dataclass
class Round:
    calls: list[Call]
    input_sha256: dict[str, str] = field(default_factory=dict)


PAR_SHAPES = ("prufer", "path", "star", "caterpillar")
EDG_SHAPES = ("prufer", "path", "star")
FIXTURE_N = 8  # theorem1-audit-8, audited by every verify call
VERIFY_SEED = 1


def sub_seed(seed: int, *parts) -> int:
    """A seed for one input, derived from the workload seed."""
    return random.Random(":".join(map(str, (seed,) + parts))).getrandbits(63)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(parents: list[int]) -> list[int]:
    n = len(parents)
    if n == 1:
        return [1]
    degree = [0] * (n + 1)
    for v, p in enumerate(parents, start=1):
        if p:
            degree[v] += 1
            degree[p] += 1
    return [v for v in range(1, n + 1) if degree[v] == 1]


def solve_check(parents_of: Callable[[], list[int]]) -> Callable[[bytes], str | None]:
    """Check a ``solve --json`` output against the tree ``parents_of()``.

    The set must hold every leaf and pass the oracles' Steiner and
    domination tests.
    """

    def check(stdout: bytes) -> str | None:
        from steinerdom.oracles import is_dominating_set, is_steiner_set
        from steinerdom.tree_model import ParentArray, build_adjacency

        try:
            data = json.loads(stdout)
            chosen = data["steiner_dominating_set"]
            n_out, size = data["n"], data["size"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable solve output: {exc!r}"
        parents = parents_of()
        n = len(parents)
        if n_out != n:
            return f"solve reports n = {n_out}, input has {n}"
        if chosen != sorted(set(chosen)) or size != len(chosen):
            return "solve set is not sorted, unique and of the reported size"
        if not all(isinstance(v, int) and 1 <= v <= n for v in chosen):
            return "solve set has a label outside 1..n"
        members = set(chosen)
        missing = [v for v in _leaves(parents) if v not in members]
        if missing:
            return f"solve set misses {len(missing)} leaves, e.g. {missing[0]}"
        tree = build_adjacency(ParentArray(n, tuple(parents)))
        if not is_steiner_set(tree, tuple(chosen)):
            return "solve set is not a Steiner set"
        if not is_dominating_set(tree, tuple(chosen)):
            return "solve set is not a dominating set"
        return None

    return check


def gen_check(out: Path, n: int, seed: int) -> Callable[[bytes], str | None]:
    """The file ``gen`` wrote must equal the benchmark's own decode."""
    expected: list[bytes] = []

    def check(stdout: bytes) -> str | None:
        try:
            written = out.read_bytes()
        except OSError as exc:
            return f"gen wrote no output file: {exc}"
        out.unlink()  # a later call that writes nothing must not pass
        if not expected:
            expected.append(inputs.par_text(inputs.prufer_parents(n, seed)).encode())
        if written != expected[0]:
            return f"gen output for seed {seed} differs from the reference decode"
        return None

    return check


def verify_check(report: Path, instances: int, seen: dict) -> Callable[[bytes], str | None]:
    """The verify report must be clean apart from certificates, with the
    fixture certified, and its discrepancy count must repeat per argument set."""

    def check(stdout: bytes) -> str | None:
        try:
            data = json.loads(report.read_text())
            report.unlink()
            fixture = data["fixture"]
            found = (
                data["instances"] + 1,
                data["validity_failures"],
                data["optimality_failures"],
                len(data["internal_errors"]),
                (fixture["outcome"], fixture["algorithm_size"], fixture["oracle_size"]),
            )
            discrepancies = data["discrepancies"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify report: {exc!r}"
        wanted = (instances, 0, 0, 0, ("certificate", 5, 4))
        if found != wanted:
            return f"verify report {found} (instances, validity, optimality, internal, fixture) != {wanted}"
        first = seen.setdefault(str(report), discrepancies)
        if discrepancies != first:
            return f"discrepancy count {discrepancies} != {first} from an earlier call"
        return None

    return check


def solve_par(work: Path, seed: int, sizes: Sizes) -> Round:
    rnd = Round([])
    for shape in PAR_SHAPES:
        parents = inputs.shape_parents(shape, sizes.par_n, sub_seed(seed, "solve-par", shape))
        data = inputs.par_text(parents).encode()
        path = work / f"{shape}.par"
        path.write_bytes(data)
        rnd.input_sha256[path.name] = key = sha256(data)
        rnd.calls.append(
            Call(shape, ["solve", str(path), "--json"], len(parents), 1, 0,
                 solve_check(lambda p=parents: p), shape, key)
        )
    return rnd


def solve_edg(work: Path, seed: int, sizes: Sizes) -> Round:
    rnd = Round([])
    n = sizes.edg_n
    for shape in EDG_SHAPES:
        s = sub_seed(seed, "solve-edg", shape)
        edges = inputs.shuffled_edges(n, inputs.shape_edges(shape, n, s), random.Random(s))
        data = inputs.edg_text(n, edges).encode()
        path = work / f"{shape}.edg"
        path.write_bytes(data)
        rnd.input_sha256[path.name] = key = sha256(data)
        canonical: list[list[int]] = []

        def parents_of(edges=edges, canonical=canonical):
            if not canonical:
                canonical.append(inputs.canonical_parents(n, edges))
            return canonical[0]

        rnd.calls.append(
            Call(shape, ["solve", str(path), "--json"], n, 1, 0, solve_check(parents_of), shape, key)
        )
    return rnd


def gen_prufer(work: Path, seed: int, sizes: Sizes) -> Round:
    rnd = Round([])
    n = sizes.gen_n
    for i in range(sizes.gen_seeds):
        s = sub_seed(seed, "gen-prufer", i)
        out = work / f"gen-{i}.par"
        argv = ["gen", "--family", "prufer", "--n", str(n), "--seed", str(s), "--out", str(out)]
        rnd.input_sha256[f"gen-{i}"] = sha256(" ".join(argv[:-2]).encode())
        rnd.calls.append(Call(f"seed{i}", argv, n, 1, 0, gen_check(out, n, s)))
    return rnd


def _random_mode_vertices(count: int, max_n: int, seed: int) -> int:
    """Vertices of the trees ``verify --mode random`` draws: it takes
    ``n = randint(2, max_n)`` and then 64 seed bits per tree."""
    rng = random.Random(seed)
    total = 0
    for _ in range(count):
        total += rng.randint(2, max_n)
        rng.getrandbits(64)
    return total


def verify_audit(work: Path, seed: int, sizes: Sizes) -> Round:
    ex_n, rand_n, count = sizes.verify_exhaustive_n, sizes.verify_random_n, sizes.verify_count
    modes = [
        ("exhaustive", ["--mode", "exhaustive", "--max-n", str(ex_n)],
         sum(factorial(k - 1) for k in range(2, ex_n + 1)),
         sum(k * factorial(k - 1) for k in range(2, ex_n + 1))),
        ("random", ["--mode", "random", "--max-n", str(rand_n), "--count", str(count),
                    "--seed", str(VERIFY_SEED)],
         count, _random_mode_vertices(count, rand_n, VERIFY_SEED)),
    ]
    rnd = Round([])
    seen: dict = {}
    for label, mode_args, trees, vertices in modes:
        report = work / f"{label}.json"
        argv = ["verify", *mode_args, "--report", str(report),
                "--cert-dir", str(work / "certificates")]
        rnd.input_sha256[label] = sha256(" ".join(mode_args).encode())
        rnd.calls.append(Call(label, argv, vertices + FIXTURE_N, trees + 1, 2,
                              verify_check(report, trees + 1, seen)))
    return rnd


WORKLOADS: dict[str, Callable[[Path, int, Sizes], Round]] = {
    "solve-par": solve_par,
    "solve-edg": solve_edg,
    "gen-prufer": gen_prufer,
    "verify-audit": verify_audit,
}
