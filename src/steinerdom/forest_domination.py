"""Minimum dominating set of a rooted forest in one bottom-up pass.

Three-state greedy over a parent array: every vertex starts Bound (needs
domination), a Bound vertex promotes its parent to Required, a Required
vertex is taken into the set and Frees a still-Bound parent.  Because
parent < vertex everywhere, the single descending loop visits all children
before their parent, so a vertex's state is final at its own visit.  The
index-0 sentinel that roots point to is Outside, like every vertex not
listed in ``inside``; a Bound vertex whose parent is Outside is taken at
its own visit, since nothing else can dominate it.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import islice, repeat
from operator import lt, setitem

from .tree_model import ParentArray, ValidationError


class LabelState(IntEnum):
    BOUND = 0
    REQUIRED = 1
    FREE = 2
    OUTSIDE = 3


def forest_domination(
    parents: ParentArray,
    trace: list[tuple[int, LabelState, LabelState]] | None = None,
    *,
    inside: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Return a minimum dominating set of the forest, ascending labels.

    With ``inside`` (labels in 1..n, strictly ascending) the set dominates
    the subforest induced by those vertices, and its labels are the int
    objects of ``inside``; ``None`` means every vertex.  The empty forest
    yields the empty set.  When ``trace`` is a list, every actual state
    change is appended as (vertex, old_state, new_state).
    """
    n = parents.n
    par = parents.parent
    bound, required, free, out = map(int, LabelState)
    if inside is None:
        label = bytearray(n + 1)
        order = range(n, 0, -1)
    else:
        if not inside:  # no vertex inside: skip the O(n) label array
            return ()
        # C-level: map/lt compare neighbours without a per-vertex bytecode
        if not (0 < inside[0] and inside[-1] <= n
                and all(map(lt, inside, islice(inside, 1, None)))):
            raise ValidationError(
                f"inside must list labels in 1..{n} in strictly ascending order"
            )
        label = bytearray([out]) * (n + 1)
        any(map(setitem, repeat(label), inside, repeat(bound)))
        order = reversed(inside)
    label[0] = out
    chosen: list[int] = []  # descending; reversed once at the end
    for i in order:
        p = par[i - 1]
        li = label[i]
        lp = label[p]
        if li == bound and lp != out:
            if trace is not None and lp != required:
                trace.append((p, LabelState(lp), LabelState.REQUIRED))
            label[p] = required
        elif li != free:  # Required, or Bound with no parent to promote
            chosen.append(i)
            if lp == bound:
                if trace is not None:
                    trace.append((p, LabelState.BOUND, LabelState.FREE))
                label[p] = free
    chosen.reverse()
    return tuple(chosen)
