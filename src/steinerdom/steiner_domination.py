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

One labelling, built in C (map, compress, bytes.translate) with no
per-vertex loop in Python, states the construction to the forest pass.
The leaf flags, indexed by tree label with n + 1 entries, start all set;
every vertex that is some vertex's parent is cleared, and then the root,
which is a leaf iff it has at most one child.  The flags translate into
the pass's initial labels, a leaf Outside and every other vertex Bound,
and the leaves' neighbours, N(L), are then set Outside: the leaves'
parents and, when the root is a leaf, its only child.  What is left Bound
is the core, the vertices outside N[L].

forest_domination runs on the tree's own parent array with these labels,
so it visits the core vertices alone, and a core vertex whose tree parent
is Outside, or the tree's root, is a root of the core forest.  It marks
its set, in tree labels, into a copy of the leaf flags, and the core flags
are read off the labels afterwards.  The result keeps the three flag
arrays; every vertex tuple it offers is built from them when it is read.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import setitem

from .forest_domination import LabelState, forest_domination
from .tree_model import _ONE, ParentArray, Record, _find_entry, validate

# an int, as the setitem map sets it per vertex and an IntEnum is slower
_OUTSIDE = LabelState.OUTSIDE.value
# a leaf flag -> the vertex's initial label: Outside for a leaf, else Bound
_LEAF_LABELS = bytes.maketrans(b"\0\1", bytes((LabelState.BOUND, _OUTSIDE)))
# a label -> the core flag: set for a vertex left Bound, else unset
_IN_CORE = bytes.maketrans(bytes(LabelState), b"\1\0\0\0")


def _members(flags: bytes) -> tuple[int, ...]:
    """The labels whose flag is set, ascending."""
    return tuple(compress(range(len(flags)), flags))


class CoreForest(Record):
    """The forest induced by vertices at distance >= 2 from every leaf.

    to_tree lists its m vertices by tree label, ascending.  A core vertex's
    parent in the core forest is its tree parent when that is a core
    vertex; otherwise the vertex is a core root.
    """

    __slots__ = ("m", "to_tree")


class SteinerDominationResult(Record):
    """One run of the construction, as three byte flags indexed by tree
    label (n + 1 entries each, index 0 always unset): the leaves, the core
    vertices, and the chosen set.

    The set is the disjoint union of the leaves and a minimum dominating
    set of the core forest.  The tuples below are built from the flags on
    each read, so a caller that reads one several times keeps it.
    """

    __slots__ = ("is_leaf", "in_core", "in_set")

    @property
    def leaves(self) -> tuple[int, ...]:
        return _members(self.is_leaf)

    @property
    def core(self) -> CoreForest:
        to_tree = _members(self.in_core)
        return CoreForest(len(to_tree), to_tree)

    @property
    def core_dominating_set(self) -> tuple[int, ...]:
        # the set's members among the core vertices
        return tuple(compress(_members(self.in_core), compress(self.in_set, self.in_core)))

    @property
    def steiner_dominating_set(self) -> tuple[int, ...]:
        return _members(self.in_set)

    @property
    def size(self) -> int:
        return self.in_set.count(1)


def steiner_domination(parents: ParentArray) -> SteinerDominationResult:
    """Run the full construction on a single tree (forests are rejected)."""
    validate(parents)
    n = parents.n
    par = parents.parent
    # Flags are indexed by tree label.  par[i - 1] belongs to label i, so
    # flags[1:] lines up with par.  setitem returns None, so any() runs
    # each map to its end without keeping its results.
    is_leaf = bytearray(b"\1") * (n + 1)
    any(map(setitem, repeat(is_leaf), par, repeat(0)))
    # The degree-1 test: a non-root is a leaf iff it has no child, the root
    # iff it has at most one (which covers K1).  Vertex 2, when there is
    # one, is the root's child, so the root is a leaf iff no later vertex
    # is; the search stops at the first.  Index 0 took the root's parent
    # entry, so it reads 0.
    is_leaf[1] = _find_entry(par, _ONE, 2) < 0

    # N(L) is the leaves' parents and, when the root is a leaf, its only
    # child: vertex 2, as parent < vertex and vertex 1 is the root.  Index
    # 0 is no vertex: it reads Bound, a leaf root's parent entry marks it,
    # and it is set Outside last, so it stays out of the core.
    labels = is_leaf.translate(_LEAF_LABELS)
    any(map(setitem, repeat(labels), compress(par, is_leaf[1:]), repeat(_OUTSIDE)))
    if is_leaf[1] and n > 1:
        labels[2] = _OUTSIDE
    labels[0] = _OUTSIDE
    # the core's set is marked beside the leaves, which are outside the core
    in_set = bytearray(is_leaf)
    forest_domination(parents, labels=labels, into=in_set)
    in_core = bytes(labels.translate(_IN_CORE))
    del labels  # freed before the result's copies of the other two
    return SteinerDominationResult(bytes(is_leaf), in_core, bytes(in_set))
