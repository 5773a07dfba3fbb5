"""Seeded input generation, independent of ``steinerdom gen``.

The benchmark writes its own input files so that a parent commit and a
child commit solve byte-identical inputs even if the program's generators
change.  Everything here is a short re-implementation of a documented rule:

* a uniform random tree as a decoded Prüfer sequence;
* the canonical BFS relabelling of an edge list: root at the
  smallest-labelled vertex of maximum degree, neighbours visited in
  ascending label order, new labels in visit order;
* shape builders (path, star, caterpillar) and the ``.edg`` label shuffle;
* what ``steinerdom gen --family prufer`` must write for a seed: the draws
  it documents (``random.Random(seed)``, ``n - 2`` times ``randint(1, n)``),
  decoded and canonicalised.
"""

from __future__ import annotations

import random


def prufer_sequence(n: int, seed: int) -> list[int]:
    """The n - 2 draws ``steinerdom gen --family prufer`` makes for a seed."""
    rng = random.Random(seed)
    return [rng.randint(1, n) for _ in range(n - 2)]


def random_sequence(n: int, seed: int) -> list[int]:
    """A uniform random Prüfer sequence, drawn faster than ``prufer_sequence``."""
    return random.Random(seed).choices(range(1, n + 1), k=n - 2)


def decode_prufer(n: int, seq: list[int]) -> list[tuple[int, int]]:
    """The labelled tree on 1..n whose Prüfer sequence is ``seq`` (n >= 2)."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return edges


def canonical_parents(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Parent list (0 for the root) of the canonical BFS relabelling."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    root = degree.index(max(degree)) if n > 1 else 1
    new = [0] * (n + 1)
    new[root] = 1
    order = [root]
    parent = [0]
    for old in order:  # order grows while it is walked: a BFS queue
        label = new[old]
        for w in sorted(adj[old]):
            if not new[w]:
                order.append(w)
                new[w] = len(order)
                parent.append(label)
    if len(order) != n:
        raise ValueError(f"edge list reaches {len(order)} of {n} vertices")
    return parent


def removal_order_parents(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Parent list of a decoded Prüfer tree rooted at n, without a BFS.

    ``decode_prufer`` removes each leaf before its neighbour, and never
    removes n, so labelling the i-th removed leaf n - i (counting from 0) and
    n itself 1 gives every parent a smaller label than its child.
    """
    label = [0] * (n + 1)
    label[n] = 1
    for i, (leaf, _) in enumerate(edges):
        label[leaf] = n - i
    parent = [0] * n
    for leaf, x in edges:
        parent[label[leaf] - 1] = label[x]
    return parent


def prufer_parents(n: int, seed: int) -> list[int]:
    """What ``steinerdom gen --family prufer --n n --seed seed`` must write."""
    if n == 1:
        return [0]
    return canonical_parents(n, decode_prufer(n, prufer_sequence(n, seed)))


def par_text(parents: list[int]) -> str:
    return f"{len(parents)}\n{' '.join(map(str, parents))}\n"


def shuffled_edges(
    n: int, edges: list[tuple[int, int]], rng: random.Random
) -> list[tuple[int, int]]:
    """The same tree under a random label permutation, in random line order."""
    perm = list(range(n + 1))
    tail = perm[1:]
    rng.shuffle(tail)
    perm[1:] = tail
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def edg_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def shape_edges(shape: str, n: int, seed: int) -> list[tuple[int, int]]:
    """Edges of an unrooted shape before the label shuffle."""
    if shape == "prufer":
        return decode_prufer(n, random_sequence(n, seed))
    if shape == "path":
        return [(i, i + 1) for i in range(1, n)]
    if shape == "star":
        return [(1, i) for i in range(2, n + 1)]
    raise ValueError(f"unknown .edg shape {shape!r}")


def shape_parents(shape: str, n: int, seed: int) -> list[int]:
    """Parent list of a rooted shape for a .par file.

    The caterpillar is a spine 1..s with two leaves on every spine vertex,
    so it has 3 * (n // 3) vertices.
    """
    if shape == "prufer":
        return removal_order_parents(n, decode_prufer(n, random_sequence(n, seed)))
    if shape == "path":
        return [0] + list(range(1, n))
    if shape == "star":
        return [0] + [1] * (n - 1)
    if shape == "caterpillar":
        spine = n // 3
        return [0] + list(range(1, spine)) + [i for i in range(1, spine + 1) for _ in (0, 1)]
    raise ValueError(f"unknown .par shape {shape!r}")
