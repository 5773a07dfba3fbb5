"""Definition-driven exact computations used as ground truth in tests.

Everything here works straight from the definitions, and none of it
shares logic with the linear labeling passes it is used to check:

- spans by iterative pruning (steiner_subtree and the Steiner set test);
- minimum dominating sets by bit-sliced evaluation over every subset,
  and the domination number by an independent dynamic program;
- minimum Steiner dominating sets and Steiner numbers by bit-sliced
  evaluation, and, beyond the bit-sliced cap, minimum Steiner dominating
  sets by enumerating leaf supersets and pruning each candidate to its
  span.

Bit-sliced evaluation lets bit s of one int stand for subset s of the n
vertices, so a predicate is decided for all 2^n subsets by O(n) big-int
AND/OR operations.  It tests the same definitions without the span
pruning: a vertex is dominated when a member lies in its closed
neighborhood, and it lies on the span when it is a member or two branches
at it hold members.  The leaf-superset search therefore remains an
independent check of the bit-sliced one.

The public functions check their arguments on entry, with tree_model's
single-tree and vertex-range checks; the enumerations then test their
candidates, valid by construction, without checking them again.

Witnesses are deterministic: the first optimum in increasing size, then
lexicographic order of the label tuple.  Fixed size caps, the constants
below, keep the exponential searches at desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

from .tree_model import (
    AdjacencyTree,
    ParentArray,
    TreeModelError,
    ValidationError,
    _check_vertices,
    build_adjacency,
    closed_neighborhood,
    leaf_set,
    validate,
)


class CapExceededError(TreeModelError):
    """Instance larger than the enumeration cap for the requested oracle."""


# the largest n each exact oracle accepts; min_steiner_dominating_set
# searches leaf supersets, not every subset, above STEINER_NUMBER_CAP
DOMINATING_CAP = 20
STEINER_DOMINATING_CAP = 24
STEINER_NUMBER_CAP = 18


def _prune_to_span(t: AdjacencyTree, w: tuple[int, ...]) -> tuple[bytearray, int]:
    """Iteratively delete degree-1 vertices outside the terminal set w.

    Checks nothing: t must be a single tree and w a non-empty set of its
    vertices, as the public callers establish once per call before they
    enumerate candidates.  Returns (alive flags indexed 1..n, survivor
    count).  In a tree the surviving vertices are exactly the unique
    minimal connected subgraph containing the terminals.
    """
    terminals = set(w)
    n = t.n
    deg = list(t.degree)
    alive = bytearray(b"\1" * (n + 1))  # index 0 is no vertex and never read
    stack = [v for v in range(1, n + 1) if deg[v - 1] == 1 and v not in terminals]
    survivors = n
    while stack:
        v = stack.pop()
        alive[v] = 0
        survivors -= 1
        p = t.parent[v - 1]
        for u in t.children[v - 1]:
            if alive[u]:
                deg[u - 1] -= 1
                if deg[u - 1] == 1 and u not in terminals:
                    stack.append(u)
        if p != 0 and alive[p]:
            deg[p - 1] -= 1
            if deg[p - 1] == 1 and p not in terminals:
                stack.append(p)
    return alive, survivors


def steiner_subtree(t: AdjacencyTree, w: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices, ascending, of the minimal subtree of t spanning the
    non-empty vertex set w."""
    validate(t)
    if not w:
        raise ValidationError("terminal set must be non-empty")
    _check_vertices(t.n, w)
    alive = _prune_to_span(t, w)[0]
    return tuple(v for v in range(1, t.n + 1) if alive[v])


def is_steiner_set(t: AdjacencyTree, w: tuple[int, ...]) -> bool:
    """True iff the minimal subtree spanning w covers every vertex."""
    return len(steiner_subtree(t, w)) == t.n


def is_dominating_set(t: AdjacencyTree, s: tuple[int, ...]) -> bool:
    """True iff every vertex is in s or adjacent to a member of s."""
    return len(closed_neighborhood(t, s)) == t.n


def _closed_masks(t: AdjacencyTree) -> list[int]:
    """Closed neighborhood of each vertex as a bitmask (bit v-1), 0-indexed."""
    masks = []
    for v in range(1, t.n + 1):
        m = 1 << (v - 1)
        p = t.parent[v - 1]
        if p != 0:
            m |= 1 << (p - 1)
        for c in t.children[v - 1]:
            m |= 1 << (c - 1)
        masks.append(m)
    return masks


def min_dominating_set(f: AdjacencyTree) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum dominating set of a forest.

    Every subset is tested at once, bit-sliced; the witness is the first
    optimum in increasing size, then lexicographic order of the label
    tuple.
    """
    n = f.n
    if n == 0:
        return 0, ()
    if n > DOMINATING_CAP:
        raise CapExceededError(f"n={n} exceeds dominating-set cap {DOMINATING_CAP}")
    has, sizes = _subset_planes(n)
    return _first_optimum(n, _dominating_subsets(f, has), sizes)


@lru_cache(maxsize=None)
def _subset_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every subset of n vertices, bit-sliced: ``(has, sizes)``.

    Bit s of an int stands for the subset holding each label v whose bit
    n - v of s is set, so among subsets of one size the lexicographically
    first label tuple is the highest bit.  ``has[v]`` marks the subsets
    that contain v (``has[0]``, no vertex, is 0) and ``sizes[k]`` those
    with k members.  Each of the 2n + 1 ints has 2^n bits, and the cache
    keeps them for every n asked for, at most DOMINATING_CAP.
    """
    width = 1 << n
    full = (1 << width) - 1
    nbytes = max(width >> 3, 1)
    has = [0] * (n + 1)
    for v in range(1, n + 1):
        # bit j is set in the upper half of every run of 2^(j + 1) indices
        j = n - v
        if j < 3:
            unit = (b"\xaa", b"\xcc", b"\xf0")[j]
        else:
            half = 1 << (j - 3)
            unit = bytes(half) + b"\xff" * half
        has[v] = int.from_bytes(unit * (nbytes // len(unit)), "little") & full
    # a ripple-carry counter over the has ints: bit i of each subset's size
    counts = [0] * n.bit_length()
    for carry in has:
        i = 0
        while carry:
            counts[i], carry = counts[i] ^ carry, counts[i] & carry
            i += 1
    sizes = []
    for k in range(n + 1):
        size_k = full
        for i, c in enumerate(counts):
            size_k &= c if k >> i & 1 else full ^ c
        sizes.append(size_k)
    return tuple(has), tuple(sizes)


def _first_optimum(
    n: int, valid: int, sizes: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """The smallest k with a subset in ``valid``, and the lexicographically
    first such k-subset: the highest bit of ``valid & sizes[k]``."""
    for k in range(1, n + 1):
        found = valid & sizes[k]
        if found:
            s = found.bit_length() - 1
            return k, tuple(v for v in range(1, n + 1) if s >> (n - v) & 1)
    raise AssertionError("the full vertex set always qualifies")


def _dominating_subsets(f: AdjacencyTree, has: tuple[int, ...]) -> int:
    """The dominating sets of the forest f, bit-sliced: the subsets that
    meet N[u] for every vertex u."""
    valid = -1
    for u in range(1, f.n + 1):
        near = has[u] | has[f.parent[u - 1]]  # has[0] is 0 for a root
        for c in f.children[u - 1]:
            near |= has[c]
        valid &= near
    return valid


def _spanning_subsets(t: AdjacencyTree, has: tuple[int, ...]) -> int:
    """The Steiner sets of the tree t, bit-sliced.

    A vertex v lies on the span of W iff v is in W or W meets at least two
    components of T - v: the subtrees of v's children and, unless v is the
    root, the part outside v's own subtree.  A descending pass ORs each
    subtree's members and counts, per vertex, the child subtrees that W
    meets (``ones``: at least one, ``twos``: at least two); an ascending
    pass derives the part outside each subtree from its parent's.
    """
    n = t.n
    parent = t.parent
    subtree = list(has)
    ones = [0] * (n + 1)
    twos = [0] * (n + 1)
    for v in range(n, 1, -1):
        p = parent[v - 1]
        below = subtree[v]
        twos[p] |= ones[p] & below
        ones[p] |= below
        subtree[p] |= below
    outside = [0] * (n + 1)  # the root has no outside part
    valid = -1
    for v in range(1, n + 1):
        out = outside[v]
        valid &= has[v] | twos[v] | (ones[v] & out)
        # a child's outside: v's outside, v, and any other child subtree
        shared = out | has[v] | twos[v]
        for c in t.children[v - 1]:
            outside[c] = shared | (ones[v] & ~subtree[c])
    return valid


def domination_number_dp(f: AdjacencyTree) -> int:
    """Domination number of a forest by a three-way dynamic program.

    Per-vertex cases: taken into the set; not taken but covered by a child;
    not taken and waiting for its parent.  Since parent < vertex, a single
    descending sweep finalizes children before parents; a root pays
    min(taken, covered-by-child).  Linear time, no enumeration, no shared
    code with min_dominating_set.
    """
    n = f.n
    if n == 0:
        return 0
    par = f.parent
    inf = n + 2
    sum_any = [0] * (n + 1)  # sum over children of min(taken, covered, waiting)
    sum_cov = [0] * (n + 1)  # sum over children of min(taken, covered)
    delta = [inf] * (n + 1)  # cheapest upgrade forcing one child to 'taken'
    total = 0
    for i in range(n, 0, -1):
        taken = 1 + sum_any[i]
        waiting = sum_cov[i]
        covered = sum_cov[i] + delta[i]
        if covered > inf:
            covered = inf
        p = par[i - 1]
        if p == 0:
            total += taken if taken < covered else covered
        else:
            best_tc = taken if taken < covered else covered
            best_all = best_tc if best_tc < waiting else waiting
            sum_any[p] += best_all
            sum_cov[p] += best_tc
            d = taken - best_tc
            if d < delta[p]:
                delta[p] = d
    return total


def induced_forest(
    t: AdjacencyTree, vertices: Iterable[int]
) -> tuple[AdjacencyTree, tuple[int, ...]]:
    """The subforest of t induced by ``vertices``, and their tree labels.

    The vertices are relabelled 1..m in ascending tree-label order, which
    keeps parent < vertex; one whose tree parent is left out is a root.
    """
    labels = tuple(sorted(set(vertices)))
    _check_vertices(t.n, labels)
    new_label = {v: h for h, v in enumerate(labels, start=1)}
    parent = tuple(new_label.get(t.parent[v - 1], 0) for v in labels)
    return build_adjacency(ParentArray(len(labels), parent)), labels


def min_steiner_dominating_set(t: AdjacencyTree) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum Steiner dominating set of a tree.

    Up to STEINER_NUMBER_CAP vertices every subset is tested at once,
    bit-sliced, against both definitions; this assumes nothing, so the
    claim _leaf_superset_search relies on stays testable.  Beyond it, up
    to STEINER_DOMINATING_CAP, _leaf_superset_search answers.  Both
    return the first optimum in increasing size, then lexicographic order.
    """
    validate(t)
    n = t.n
    if n > STEINER_DOMINATING_CAP:
        raise CapExceededError(
            f"n={n} exceeds Steiner-dominating cap {STEINER_DOMINATING_CAP}"
        )
    if n > STEINER_NUMBER_CAP:
        return _leaf_superset_search(t)
    has, sizes = _subset_planes(n)
    valid = _spanning_subsets(t, has) & _dominating_subsets(t, has)
    return _first_optimum(n, valid, sizes)


def _leaf_superset_search(t: AdjacencyTree) -> tuple[int, tuple[int, ...]]:
    """Minimum Steiner dominating set by enumerating supersets of the leaf
    set (every Steiner set of a tree contains its end-vertices), each
    pruned to its span.  Checks nothing: t must be a single tree."""
    n = t.n
    masks = _closed_masks(t)
    full = (1 << n) - 1
    base = leaf_set(t)
    base_cover = 0
    for v in base:
        base_cover |= masks[v - 1]
    others = [v for v in range(1, n + 1) if v not in base]
    # merged witnesses inherit (size, lex) order from the extras
    for extra_k in range(len(others) + 1):
        for combo in combinations(others, extra_k):
            cover = base_cover
            for v in combo:
                cover |= masks[v - 1]
            if cover == full:
                w = tuple(sorted(base + combo))
                if _prune_to_span(t, w)[1] == n:
                    return len(w), w
    raise AssertionError("the full vertex set is Steiner and dominating")


def steiner_number(t: AdjacencyTree) -> int:
    """Smallest size of a Steiner set, testing every subset bit-sliced."""
    validate(t)
    n = t.n
    if n > STEINER_NUMBER_CAP:
        raise CapExceededError(f"n={n} exceeds Steiner-number cap {STEINER_NUMBER_CAP}")
    has, sizes = _subset_planes(n)
    return _first_optimum(n, _spanning_subsets(t, has), sizes)[0]
