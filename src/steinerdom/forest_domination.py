"""Minimum dominating set of a rooted forest in one bottom-up pass.

Three-state greedy over a parent array: every vertex starts Bound (needs
domination), a Bound vertex promotes its parent to Required, a Required
vertex is taken into the set and Frees a still-Bound parent.  Because
parent < vertex everywhere, the single descending loop visits all children
before their parent, so a vertex's state is final at its own visit.  The
index-0 sentinel that roots point to is Outside, like every vertex left
out of the forest by ``outside``; a Bound vertex whose parent is Outside
is taken at its own visit, since nothing else can dominate it.
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


# outside flags -> labels (0 is Bound, any other Outside) and -> visit marks
_TO_LABEL = bytes([LabelState.BOUND]) + bytes([LabelState.OUTSIDE]) * 255
_INSIDE = b"\1" + bytes(255)


def forest_domination(
    parents: ParentArray,
    trace: list[tuple[int, LabelState, LabelState]] | None = None,
    *,
    outside: bytes | None = None,
) -> tuple[int, ...]:
    """Return a minimum dominating set of the forest, ascending labels.

    With ``outside`` (n + 1 byte flags by label, index 0 ignored) the set
    dominates the subforest induced by the vertices flagged 0.  The empty
    forest yields the empty set.  When ``trace`` is a list, every actual
    state change is appended as (vertex, old_state, new_state).
    """
    n = parents.n
    par = parents.parent
    flags = bytes(n + 1) if outside is None else outside
    if len(flags) != n + 1:
        raise ValidationError(f"outside has {len(flags)} flags, expected {n + 1}")
    if flags.find(0, 1) < 0:  # no vertex inside: skip the O(n) passes below
        return ()
    bound, required, free, out = map(int, LabelState)
    label = bytearray(flags.translate(_TO_LABEL))
    label[0] = out
    chosen: list[int] = []  # descending; reversed once at the end
    for i in compress(range(n, 0, -1), flags[:0:-1].translate(_INSIDE)):
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
