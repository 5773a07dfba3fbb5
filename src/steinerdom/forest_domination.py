"""Minimum dominating set of a rooted forest in one bottom-up pass.

Three-state greedy over a parent array: every vertex starts Bound (needs
domination), a Bound vertex promotes its parent to Required, a Required
vertex is taken into the set and Frees a still-Bound parent.  Because
parent < vertex everywhere, the single descending loop visits all children
before their parent, so a vertex's state is final at its own visit.  The
index-0 sentinel that roots point to is Outside, like every vertex that
``labels`` starts Outside; a Bound vertex whose parent is Outside is taken
at its own visit, since nothing else can dominate it.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import compress

from .tree_model import ParentArray, ValidationError


class LabelState(IntEnum):
    BOUND = 0
    REQUIRED = 1
    FREE = 2
    OUTSIDE = 3


# the four states as bytes; translate deletes them, and whatever is left is
# not a state
_STATES = bytes(LabelState)
# a state byte -> 1 for a vertex the pass visits, 0 for an Outside one
_VISIT = bytes.maketrans(_STATES, b"\1\1\1\0")


def forest_domination(
    parents: ParentArray,
    trace: list[tuple[int, LabelState, LabelState]] | None = None,
    *,
    labels: bytes | None = None,
    into: bytearray | None = None,
) -> tuple[int, ...] | None:
    """Return a minimum dominating set of the forest, ascending labels.

    ``labels`` gives each vertex its initial LabelState: n + 1 bytes, with
    ``labels[v]`` for vertex v and ``labels[0]`` read as Outside whatever
    it holds.  The pass visits only the vertices that do not start Outside,
    so with Bound and Outside alone the set dominates the subforest that
    the Bound vertices induce.  ``None`` starts every vertex Bound.  The
    empty forest yields the empty set.  When ``trace`` is a list, every
    actual state change is appended as (vertex, old_state, new_state).

    The pass marks the set as byte flags, ``flags[v]`` set for a chosen
    vertex v.  With ``into``, n + 1 flags of the caller's, it sets the
    chosen vertices' flags there, leaves the others as they are and
    returns None, so that no int per chosen vertex is kept.
    """
    n = parents.n
    par = parents.parent
    bound, required, free, out = _STATES  # ints: iterating the enum costs µs per call
    if into is not None and len(into) != n + 1:
        raise ValidationError(f"into must hold {n + 1} flags, got {len(into)}")
    if labels is None:
        label = bytearray(n + 1)
        order = range(n, 0, -1)
    else:
        # both checks run in C: no byte is left once the states are deleted
        if len(labels) != n + 1 or labels.translate(None, _STATES):
            raise ValidationError(f"labels must hold {n + 1} states, each in 0..3")
        label = bytearray(labels)
        # reversed, the flags line up with n..1; compress stops before flag 0
        order = compress(range(n, 0, -1), reversed(labels.translate(_VISIT)))
    label[0] = out
    chosen = bytearray(n + 1) if into is None else into
    for i in order:
        p = par[i - 1]
        li = label[i]
        lp = label[p]
        if li == bound and lp != out:
            if trace is not None and lp != required:
                trace.append((p, LabelState(lp), LabelState.REQUIRED))
            label[p] = required
        elif li != free:  # Required, or Bound with no parent to promote
            chosen[i] = 1
            if lp == bound:
                if trace is not None:
                    trace.append((p, LabelState.BOUND, LabelState.FREE))
                label[p] = free
    if into is None:
        return tuple(compress(range(n + 1), chosen))
    return None
