"""Definition-driven exact computations used as ground truth in tests.

Everything here works straight from the definitions: spanning subtrees by
iterative pruning, dominating sets by subset enumeration or an independent
dynamic program, Steiner sets by actually computing the span.  None of it
shares logic with the linear labeling passes it is used to check.

The public functions check their arguments on entry, with tree_model's
single-tree and vertex-range checks; the enumerations then test their
candidates, valid by construction, without checking them again.

Subset enumeration visits candidates in increasing size, then
lexicographic order, so returned witnesses are deterministic.  Size caps
keep the exponential searches at desk scale; they are configuration, not
logic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
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


@dataclass(frozen=True)
class OracleCaps:
    """Largest n each enumeration oracle will accept."""

    dominating: int = 20
    steiner_dominating: int = 18
    steiner_dominating_pruned: int = 24
    steiner_number: int = 18


DEFAULT_CAPS = OracleCaps()


@dataclass(frozen=True)
class SteinerTreeSpan:
    """The unique minimal subtree spanning a terminal set in a tree."""

    vertices: tuple[int, ...]
    edge_count: int


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


def steiner_subtree(t: AdjacencyTree, w: tuple[int, ...]) -> SteinerTreeSpan:
    """Minimal subtree of t spanning the non-empty vertex set w."""
    validate(t)
    if not w:
        raise ValidationError("terminal set must be non-empty")
    _check_vertices(t.n, w)
    alive, survivors = _prune_to_span(t, w)
    vertices = tuple(v for v in range(1, t.n + 1) if alive[v])
    return SteinerTreeSpan(vertices=vertices, edge_count=survivors - 1)


def steiner_distance(t: AdjacencyTree, w: tuple[int, ...]) -> int:
    """Edge count of the minimal subtree spanning w; 0 for a single vertex."""
    return steiner_subtree(t, w).edge_count


def is_steiner_set(t: AdjacencyTree, w: tuple[int, ...]) -> bool:
    """True iff the minimal subtree spanning w covers every vertex."""
    return len(steiner_subtree(t, w).vertices) == t.n


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


def min_dominating_set(
    f: AdjacencyTree, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum dominating set of a forest.

    Candidates are visited in increasing size and, within a size,
    lexicographic order of the label tuple, so the witness is the
    deterministic first optimum.
    """
    n = f.n
    if n == 0:
        return 0, ()
    if n > caps.dominating:
        raise CapExceededError(f"n={n} exceeds dominating-set cap {caps.dominating}")
    masks = _closed_masks(f)
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            cover = 0
            for idx in combo:
                cover |= masks[idx]
            if cover == full:
                return k, tuple(i + 1 for i in combo)
    raise AssertionError("the full vertex set always dominates")


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


def min_steiner_dominating_set(
    t: AdjacencyTree, prune: bool = False, caps: OracleCaps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum Steiner dominating set of a tree.

    With ``prune=True`` only supersets of the leaf set are enumerated
    (every Steiner set of a tree contains its end-vertices), buying a
    larger cap.  The unpruned mode exists so that claim itself stays
    testable: it assumes nothing and checks every candidate against both
    definitions.
    """
    validate(t)
    n = t.n
    cap = caps.steiner_dominating_pruned if prune else caps.steiner_dominating
    if n > cap:
        raise CapExceededError(
            f"n={n} exceeds Steiner-dominating cap {cap} (prune={prune})"
        )
    masks = _closed_masks(t)
    full = (1 << n) - 1
    if prune:
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
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            cover = 0
            for v in combo:
                cover |= masks[v - 1]
            if cover == full and _prune_to_span(t, combo)[1] == n:
                return k, combo
    raise AssertionError("the full vertex set is Steiner and dominating")


def steiner_number(t: AdjacencyTree, caps: OracleCaps = DEFAULT_CAPS) -> int:
    """Smallest size of a Steiner set, by plain enumeration."""
    validate(t)
    n = t.n
    if n > caps.steiner_number:
        raise CapExceededError(f"n={n} exceeds Steiner-number cap {caps.steiner_number}")
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            if _prune_to_span(t, combo)[1] == n:
                return k
    raise AssertionError("the full vertex set is a Steiner set")
