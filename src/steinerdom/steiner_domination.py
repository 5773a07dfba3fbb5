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

Three passes build the leaves and the core.  Each iterates in C (map,
compress, bytes.translate) over byte flags indexed by tree label, so no
per-vertex loop runs in Python before the forest pass:

1. leaf flags: mark every vertex that is some vertex's parent, invert the
   marks, then fix the root, which is a leaf iff it has at most one child;
2. closed neighborhood N[L]: mark the leaves, their parents and, when the
   root is a leaf, its only child;
3. core: invert N[L] to list the core vertices in ascending label order.

forest_domination then runs on the tree's own parent array over the core
vertices alone: a core vertex whose tree parent is in N[L], or the tree's
root, is a root of the core forest, and the set comes back in tree labels,
as the int objects of the core's own label tuple.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import setitem

from .forest_domination import forest_domination
from .tree_model import ParentArray, Record, validate

# swaps the 0/1 byte flags
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


class CoreForest(Record):
    """The forest induced by vertices at distance >= 2 from every leaf.

    to_tree lists its m vertices by tree label, ascending.  A core vertex's
    parent in the core forest is its tree parent when that is a core
    vertex; otherwise the vertex is a core root.
    """

    __slots__ = ("m", "to_tree")


class SteinerDominationResult(Record):
    """Full trace of one run of the construction.

    steiner_dominating_set is the disjoint union of leaves and
    core_dominating_set, so size is len(leaves) + the domination number of
    the core forest.
    """

    __slots__ = ("leaves", "core", "core_dominating_set", "steiner_dominating_set", "size")


def steiner_domination(parents: ParentArray) -> SteinerDominationResult:
    """Run the full construction on a single tree (forests are rejected)."""
    validate(parents)
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
    to_tree = tuple(compress(range(n + 1), in_nl.translate(_FLIP)))
    del is_leaf, in_nl  # a byte per vertex each, freed before the pass
    core_dom = forest_domination(parents, inside=to_tree)
    sd = tuple(sorted(leaves + core_dom))
    return SteinerDominationResult(
        leaves, CoreForest(len(to_tree), to_tree), core_dom, sd, len(sd)
    )
