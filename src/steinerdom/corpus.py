"""Instance generators: structured families, uniform random trees, and
exhaustive small-instance streams.

Random families are deterministic in (family, n, params, seed).  The
prufer family samples uniformly over labeled trees by decoding a uniform
random Prüfer sequence straight into adjacency rows, then canonicalizes
them with relabel_bfs's BFS; families built from explicit edge lists
(spider, caterpillar) go through relabel_bfs itself, so their output is
independent of construction order.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterator
from itertools import product

from .tree_model import (FAMILIES, EdgeList, ParentArray, ValidationError, _relabel_rows,
                         relabel_bfs)

ENUMERATION_MAX_N = 10

# random_prufer_edges draws its labels from 32-bit words, so n < 2**32
PRUFER_MAX_N = 2**32 - 1
# words per getrandbits call in _randints: large enough that the calls are
# few, small enough that the chunk's int and bytes stay at 64 kB each
_DRAW_CHUNK = 1 << 14


def _spider_edges(legs: int, leg_length: int) -> EdgeList:
    n = 1 + legs * leg_length
    edges = []
    nxt = 2
    for _ in range(legs):
        prev = 1
        for _ in range(leg_length):
            edges.append((prev, nxt))  # prev < nxt: nxt only grows
            prev = nxt
            nxt += 1
    return EdgeList._trusted(n, tuple(edges))


def _caterpillar_edges(spine: int, pattern: tuple[int, ...]) -> EdgeList:
    n = spine + sum(pattern[i % len(pattern)] for i in range(spine))
    edges = [(i, i + 1) for i in range(1, spine)]
    nxt = spine + 1
    for i in range(spine):
        for _ in range(pattern[i % len(pattern)]):
            edges.append((i + 1, nxt))
            nxt += 1
    return EdgeList._trusted(n, tuple(edges))


def _prufer_rows(n: int, seq: list[int]) -> list[list[int]]:
    """Decode a Prüfer sequence into its labeled tree's adjacency rows,
    ``rows[v]`` for v in 1..n and an empty ``rows[0]``; O(n) pointer scan."""
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        rows[leaf].append(x)
        rows[x].append(leaf)
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    rows[leaf].append(n)
    rows[n].append(leaf)
    return rows


def _randints(rng: random.Random, n: int, m: int) -> list[int]:
    """``[rng.randint(1, n) for _ in range(m)]`` for 1 <= n < 2**32, drawn
    in bulk.

    randint(1, n) takes one k-bit draw, k = n.bit_length(), which is the
    top k bits of one 32-bit Mersenne Twister word, and draws again while
    the value is n or more.  getrandbits(32 * c) packs the next c words
    least significant first, so splitting it into words and keeping those
    below n << (32 - k) yields the same values from the same words.  Only
    the stream after the m-th kept word differs, and the caller's rng is
    not used again.
    """
    shift = 32 - n.bit_length()
    bound = n << shift
    out: list[int] = []
    while len(out) < m:
        c = min(m - len(out), _DRAW_CHUNK)
        # in native byte order the words come out least significant first
        # on a little-endian host and most significant first on a big one
        words = memoryview(rng.getrandbits(32 * c).to_bytes(4 * c, sys.byteorder)).cast("I")
        if sys.byteorder == "big":
            words = words[::-1]
        out += [(w >> shift) + 1 for w in words if w < bound]
    return out


def _random_prufer_rows(n: int, seed: int) -> list[list[int]]:
    """The adjacency rows, as _prufer_rows gives them, of a uniform random
    labeled tree on 1..n."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > PRUFER_MAX_N:
        raise ValidationError(f"prufer n must be <= {PRUFER_MAX_N} (2**32 - 1), got {n}")
    if n == 1:
        # the decode would join the lone vertex to itself
        return [[], []]
    return _prufer_rows(n, _randints(random.Random(seed), n, n - 2))


def random_prufer_edges(n: int, seed: int) -> EdgeList:
    """A uniform random labeled tree on 1..n, before any relabeling.

    Exposed separately from gen() so the uniformity of the raw labeled
    distribution stays observable; gen() canonicalizes and therefore
    collapses label classes.  Each edge is (u, v) with u < v, in ascending
    order of u; the order within one u is the decode's.
    """
    rows = _random_prufer_rows(n, seed)
    return EdgeList._trusted(
        n, tuple((u, v) for u, row in enumerate(rows) for v in row if u < v)
    )


def gen(
    family: str, n: int | None = None, seed: int = 0, legs: int | None = None,
    leg_length: int | None = None, spine: int | None = None,
    pattern: tuple[int, ...] | None = None,
) -> ParentArray:
    """Build the requested instance as a canonical parent array.

    n is derived from the shape parameters for spider (1 + legs *
    leg_length) and caterpillar (spine + leg sum); for those families an
    explicit n must agree with the derived value."""
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
        )
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    if family not in ("spider", "caterpillar"):
        if n is None:
            raise ValidationError(f"family {family!r} requires n")
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
    if family == "path":
        return ParentArray(n, (0,) + tuple(range(1, n)))
    if family == "star":
        return ParentArray(n, (0,) + (1,) * (n - 1))
    if family == "binary":
        return ParentArray(n, tuple(i // 2 for i in range(1, n + 1)))
    if family == "random_parent":
        rng = random.Random(seed)
        return ParentArray(
            n, (0,) + tuple(rng.randint(1, i) for i in range(1, n))
        )
    if family == "prufer":
        return _relabel_rows(n, _random_prufer_rows(n, seed))[0]
    if family == "spider":
        if legs is None or leg_length is None:
            raise ValidationError("spider requires legs and leg_length")
        if legs < 2:
            raise ValidationError(f"spider requires legs >= 2, got {legs}")
        if leg_length < 1:
            raise ValidationError(f"spider requires leg_length >= 1, got {leg_length}")
        edges = _spider_edges(legs, leg_length)
        shape = f"spider with legs={legs} leg_length={leg_length}"
    elif family == "caterpillar":
        if spine is None:
            raise ValidationError("caterpillar requires spine")
        if spine < 1:
            raise ValidationError(f"caterpillar requires spine >= 1, got {spine}")
        pattern = (1,) if pattern is None else pattern
        if not pattern or any(c < 0 for c in pattern):
            raise ValidationError("caterpillar pattern must be non-negative counts")
        edges = _caterpillar_edges(spine, pattern)
        shape = f"caterpillar with spine={spine} pattern={pattern}"
    else:
        raise AssertionError(f"unhandled family {family!r}")
    if n is not None and n != edges.n:
        raise ValidationError(f"{shape} has {edges.n} vertices, not {n}")
    return relabel_bfs(edges)[0]


def enumerate_parent_arrays(n: int, mode: str = "trees") -> Iterator[ParentArray]:
    """All parent arrays on n vertices, lexicographic, no duplicates.

    trees mode fixes parent[1] = 0 and draws parent[i] from 1..i-1,
    giving (n-1)! single-tree arrays; forests mode draws parent[i] from
    0..i-1, giving n! arrays with any number of roots.  Capped at n <= 10
    because the streams are factorial.
    """
    if mode not in ("trees", "forests"):
        raise ValidationError(f"mode must be 'trees' or 'forests', got {mode!r}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_MAX_N:
        raise ValidationError(
            f"n={n} exceeds enumeration cap {ENUMERATION_MAX_N}"
        )
    low = 1 if mode == "trees" else 0
    ranges = [range(1)] + [range(low, i) for i in range(2, n + 1)]
    for combo in product(*ranges):
        yield ParentArray(n, combo)


# The 8-vertex double spider: a leaf on the center plus two length-3 legs.
# Its construction answer exceeds the true optimum by one, which makes it
# the canonical reproducible audit case; the same array ships as
# fixtures/theorem1-audit-8.par.
FIXTURES: dict[str, ParentArray] = {
    "theorem1-audit-8": ParentArray(8, (0, 1, 1, 1, 3, 4, 5, 6)),
}
