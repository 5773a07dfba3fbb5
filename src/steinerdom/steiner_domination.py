"""Steiner dominating sets of trees via leaf extraction plus core domination.

The construction: take every end-vertex, delete their closed neighborhood,
and dominate what is left.  The surviving vertices (neither a leaf nor
adjacent to one) induce the *core forest*; a minimum dominating set of the
core, found by the forest_domination pass, joins the leaves to form the
output.  The returned set is always a Steiner set and a dominating set, and
its size is exactly leaf_count + core_domination_number.

That size is NOT guaranteed to match the true Steiner domination number:
vertices adjacent to a leaf can dominate core vertices from outside the
core, and on some trees that beats this construction.  The verify harness
audits the gap against exact oracles and emits a certificate for every
instance where the construction loses; nothing here hides that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest_domination import forest_domination
from .tree_model import ParentArray, validate


@dataclass(frozen=True)
class CoreForest:
    """The forest induced by vertices at distance >= 2 from every leaf.

    Core vertices are relabelled 1..m in ascending tree-label order, so the
    core's parent array automatically satisfies parent < vertex and can be
    fed straight to forest_domination.

    to_tree maps core label -> tree label (strictly increasing).
    """

    m: int
    to_tree: tuple[int, ...]
    parents: ParentArray


@dataclass(frozen=True)
class SteinerDominationResult:
    """Full trace of one run of the construction.

    steiner_dominating_set is the disjoint union of leaves and
    core_dominating_set, so size always equals formula_value =
    len(leaves) + domination number of the core forest.
    """

    leaves: tuple[int, ...]
    core: CoreForest
    core_dominating_set: tuple[int, ...]
    steiner_dominating_set: tuple[int, ...]
    size: int
    formula_value: int


def _leaf_flags(n: int, par: tuple[int, ...]) -> bytearray:
    """Degree-1 test from the parent array alone; index 0 unused.

    Child counts saturate at 2 since only 0/1/many matters.  A root is a
    leaf iff it has at most one child (covers K1); a non-root iff it has
    none.
    """
    cc = bytearray(n + 1)
    for i in range(1, n + 1):
        p = par[i - 1]
        if p != 0 and cc[p] < 2:
            cc[p] += 1
    flags = bytearray(n + 1)
    for i in range(1, n + 1):
        if par[i - 1] == 0:
            flags[i] = 1 if cc[i] <= 1 else 0
        else:
            flags[i] = 1 if cc[i] == 0 else 0
    return flags


def _build_core(n: int, par: tuple[int, ...], is_leaf: bytearray) -> CoreForest:
    # Mark leaf adjacency in both directions of every parent link, so a
    # leaf root's child is excluded from the core like everyone else.
    near_leaf = bytearray(n + 1)
    for i in range(1, n + 1):
        p = par[i - 1]
        if p != 0:
            if is_leaf[i]:
                near_leaf[p] = 1
            if is_leaf[p]:
                near_leaf[i] = 1
    to_tree: list[int] = []
    from_tree = [0] * (n + 1)
    m = 0
    for i in range(1, n + 1):
        if not is_leaf[i] and not near_leaf[i]:
            m += 1
            to_tree.append(i)
            from_tree[i] = m
    nparent = []
    for t_label in to_tree:
        p = par[t_label - 1]
        if p != 0 and not near_leaf[p]:
            # a leaf parent would have made t_label leaf-adjacent
            assert not is_leaf[p]
            nparent.append(from_tree[p])
        else:
            nparent.append(0)
    return CoreForest(
        m=m,
        to_tree=tuple(to_tree),
        parents=ParentArray(m, tuple(nparent)),
    )


def steiner_domination(parents: ParentArray) -> SteinerDominationResult:
    """Run the full construction on a single tree (forests are rejected)."""
    validate(parents, "tree")
    n = parents.n
    par = parents.parent
    is_leaf = _leaf_flags(n, par)
    leaves = tuple(i for i in range(1, n + 1) if is_leaf[i])
    core = _build_core(n, par, is_leaf)
    core_dom_local = forest_domination(core.parents)
    core_dom = tuple(core.to_tree[h - 1] for h in core_dom_local)
    sd = tuple(sorted(leaves + core_dom))
    return SteinerDominationResult(
        leaves=leaves,
        core=core,
        core_dominating_set=core_dom,
        steiner_dominating_set=sd,
        size=len(sd),
        formula_value=len(leaves) + len(core_dom_local),
    )
