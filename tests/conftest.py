"""Shared strategies and helpers for the suite.

Strategies build parent arrays directly in the representation's invariant
form (parent < vertex), so every drawn instance is valid by construction
and shrinking stays inside the domain.
"""

from __future__ import annotations

from heapq import heappop, heappush

import pytest
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


def shuffled_edg(pa: ParentArray, rng, newline: str = "\n") -> str:
    """pa's tree as .edg text with its labels permuted, its edges in random
    order and orientation, and a blank line after the count."""
    label = list(range(1, pa.n + 1))
    rng.shuffle(label)
    edges = [
        (label[p - 1], label[v - 1]) if rng.random() < 0.5 else (label[v - 1], label[p - 1])
        for v, p in enumerate(pa.parent, start=1) if p
    ]
    rng.shuffle(edges)
    lines = [str(pa.n), "", *(f"{u} {v}" for u, v in edges)]
    return newline.join(lines) + newline


# .edg texts that parse_edge_list rejects, each with a line-numbered ParseError
MALFORMED_EDG = [
    "3\n1 2\n",  # needs exactly n-1 edge lines
    "3\n1 2\n2 3\n1 3\n",  # too many lines
    "3\n1 2\n2 9\n",  # label out of range
    "3\n1 2\n3\n",  # not two labels
    "3\n1 2\na b\n",  # non-integer
    "2\n1 1\n",  # self loop
    pytest.param("3\n1 2\n2 +3\n", id="sign"),
    pytest.param("3\n1 2\n2 \uff13\n", id="full-width-digit"),
    pytest.param("3\n1 2\n2 1\n", id="duplicate-edge"),
    pytest.param("3\n1 2 3\n4\n", id="labels-split-wrongly"),
]

# .edg inputs that pass the lexer but hold no tree, each aimed at one check
# that the direct read of a tree runs before, or instead of, the EdgeList's
NOT_A_TREE_EDG = [
    pytest.param("3\n1 1\n2 3\n", id="self-loop"),
    pytest.param("3\n0 1\n1 2\n", id="label-0"),
    pytest.param("3\n1 2\n2 4\n", id="label-n-plus-1"),
    pytest.param(f"3\n1 2\n2 {10**100}\n", id="label-10^100"),
    pytest.param("4\n1 2\n2 3\n3 1\n", id="cycle-leaves-a-vertex-unreached"),
    # its four labels make the edges (1, 2) and (3, 2), a tree
    pytest.param("3\n1 2 3\n2\n", id="three-labels-balanced-by-one"),
    pytest.param("\r\n3\r\n\r\n1 2\r\n\r\n2 1\r\n", id="blank-lines-crlf"),
]
