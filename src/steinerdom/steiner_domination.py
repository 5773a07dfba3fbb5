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

Three passes before the forest pass build the leaves and the core.  Each
iterates in C (map, compress, bytes.translate) over byte flags indexed by
tree label, with no per-vertex Python loop; only the ParentArray
constructor's check of the core's parent entries loops in Python:

1. leaf flags: mark every vertex that is some vertex's parent, invert the
   marks, then fix the root, which is a leaf iff it has at most one child;
2. closed neighborhood N[L]: mark the leaves, their parents and, when the
   root is a leaf, its only child;
3. core: invert N[L] to get the core vertices in ascending label order,
   number them 1..m, and read each one's core parent through that
   numbering, 0 when its tree parent is outside the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import setitem, sub

from .forest_domination import forest_domination
from .tree_model import ParentArray, validate

# swaps the 0/1 byte flags
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@dataclass(frozen=True)
class CoreForest:
    """The forest induced by vertices at distance >= 2 from every leaf.

    Core vertices are relabelled 1..m in ascending tree-label order, so the
    core's parent array automatically satisfies parent < vertex and can be
    fed straight to forest_domination.  A core vertex's core parent is the
    core label of its tree parent, or 0 (a core root) when that parent is
    adjacent to a leaf or the vertex is the tree's root; a tree parent is
    never itself a leaf, since that would put its child in N[L].

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


def steiner_domination(parents: ParentArray) -> SteinerDominationResult:
    """Run the full construction on a single tree (forests are rejected)."""
    validate(parents, "tree")
    n = parents.n
    par = parents.parent
    # Flags are indexed by tree label.  par[i - 1] belongs to label i, so
    # flags[1:] lines up with par.  setitem returns None, so any() runs
    # each map to its end without keeping its results.
    is_leaf = bytearray(n + 1)
    any(map(setitem, repeat(is_leaf), par, repeat(1)))
    is_leaf = is_leaf.translate(_FLIP)
    # The degree-1 test: a non-root is a leaf iff it has no child, the root
    # iff it has at most one (which covers K1).  Index 0 took the root's
    # parent entry, so it reads 0.
    is_leaf[1] = par.count(1) < 2
    leaves = tuple(compress(range(n + 1), is_leaf))

    # N[L] is the leaves, their parents and, when the root is a leaf, its
    # only child: vertex 2, as parent < vertex and vertex 1 is the root.
    in_nl = bytearray(is_leaf)
    in_nl[0] = 1  # index 0 is no vertex; marked, it stays out of the core
    any(map(setitem, repeat(in_nl), compress(par, is_leaf[1:]), repeat(1)))
    if is_leaf[1] and n > 1:
        in_nl[2] = 1
    is_core = in_nl.translate(_FLIP)
    to_tree = tuple(compress(range(n + 1), is_core))
    m = len(to_tree)
    from_tree = [0] * (n + 1)
    any(map(setitem, repeat(from_tree), to_tree, range(1, m + 1)))
    core = CoreForest(
        m=m,
        to_tree=to_tree,
        parents=ParentArray(
            m, tuple(map(from_tree.__getitem__, compress(par, is_core[1:])))
        ),
    )
    # n-sized; dropped before the forest pass allocates its own arrays
    del from_tree

    core_dom_local = forest_domination(core.parents)
    core_dom = tuple(map(to_tree.__getitem__, map(sub, core_dom_local, repeat(1))))
    sd = tuple(sorted(leaves + core_dom))
    return SteinerDominationResult(
        leaves=leaves,
        core=core,
        core_dominating_set=core_dom,
        steiner_dominating_set=sd,
        size=len(sd),
        formula_value=len(leaves) + len(core_dom_local),
    )
