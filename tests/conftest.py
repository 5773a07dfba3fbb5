"""Shared strategies and helpers for the suite.

Strategies build parent arrays directly in the representation's invariant
form (parent < vertex), so every drawn instance is valid by construction
and shrinking stays inside the domain.
"""

from __future__ import annotations

from heapq import heappop, heappush

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from steinerdom import EdgeList, ParentArray, build_adjacency

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def tree_arrays(draw, min_n: int = 1, max_n: int = 24) -> ParentArray:
    """Uniformly shaped random single-tree parent arrays."""
    n = draw(st.integers(min_n, max_n))
    parent = [0]
    for i in range(1, n):
        parent.append(draw(st.integers(1, i)))
    return ParentArray(n, tuple(parent))


@st.composite
def forest_arrays(draw, min_n: int = 0, max_n: int = 24) -> ParentArray:
    """Random forest parent arrays, any number of roots, n=0 allowed."""
    n = draw(st.integers(min_n, max_n))
    parent = []
    for i in range(n):
        parent.append(draw(st.integers(0, i)))
    return ParentArray(n, tuple(parent))


def adjacency(*parent: int):
    """Shorthand: build an AdjacencyTree straight from parent entries."""
    return build_adjacency(ParentArray(len(parent), tuple(parent)))


def path_array(n: int) -> ParentArray:
    return ParentArray(n, (0,) + tuple(range(1, n)))


def star_array(n: int) -> ParentArray:
    return ParentArray(n, (0,) + (1,) * (n - 1))


def reference_prufer_edges(n: int, seq) -> EdgeList:
    """The labeled tree of a Prüfer sequence by the textbook rule: join the
    smallest leaf to the next label of the sequence and remove it; the
    last two vertices make the last edge.  A heap holds the leaves, where
    the program scans with a pointer.

    The edges come in reverse order, so that relabel_bfs sees each
    vertex's neighbours in descending label order and must sort them.
    """
    if n == 1:
        return EdgeList(1, ())
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]  # sorted, so a heap
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return EdgeList(n, tuple(reversed(edges)))
