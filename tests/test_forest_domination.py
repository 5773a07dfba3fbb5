"""The three-state forest pass: optimality, domination, state machine."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdom import (
    LabelState,
    ParentArray,
    ValidationError,
    build_adjacency,
    closed_neighborhood,
    domination_number_dp,
    enumerate_parent_arrays,
    forest_domination,
    induced_forest,
    is_dominating_set,
    min_dominating_set,
)

from conftest import forest_arrays, path_array, star_array


class TestExamples:
    def test_two_disjoint_p3s(self):
        assert forest_domination(ParentArray(6, (0, 1, 2, 0, 4, 5))) == (2, 5)

    def test_single_vertex(self):
        # a Bound root is taken at its own visit: its parent is Outside
        assert forest_domination(ParentArray(1, (0,))) == (1,)

    def test_star_takes_center(self):
        assert forest_domination(star_array(4)) == (1,)

    def test_p5(self):
        # trace: 5 marks 4 Required; 4 enters and frees 3; 2 marks 1
        # Required; 1 enters.  Size 2 is optimal; the oracle agrees.
        d = forest_domination(path_array(5))
        assert d == (1, 4)
        assert min_dominating_set(build_adjacency(path_array(5)))[0] == len(d)

    def test_empty_forest(self):
        assert forest_domination(ParentArray(0, ())) == ()

    def test_isolated_vertices_all_chosen(self):
        assert forest_domination(ParentArray(3, (0, 0, 0))) == (1, 2, 3)


class TestStateMachine:
    def test_freed_vertex_can_be_required_again(self):
        # tree 1-2, 1-3, 3-4: vertex 3 enters and frees 1, then leaf 2
        # demands a dominator and 1 must come back as Required
        trace = []
        assert forest_domination(ParentArray(4, (0, 1, 1, 3)), trace=trace) == (1, 3)
        assert (1, LabelState.BOUND, LabelState.FREE) in trace
        assert (1, LabelState.FREE, LabelState.REQUIRED) in trace

    @given(forest_arrays(max_n=40))
    def test_transitions_and_change_budget(self, pa):
        trace = []
        forest_domination(pa, trace=trace)
        allowed = {
            (LabelState.BOUND, LabelState.REQUIRED),
            (LabelState.BOUND, LabelState.FREE),
            (LabelState.FREE, LabelState.REQUIRED),
        }
        changes = {}
        for vertex, old, new in trace:
            assert (old, new) in allowed
            changes[vertex] = changes.get(vertex, 0) + 1
        assert all(c <= 2 for c in changes.values())

    @given(forest_arrays(max_n=40))
    def test_deterministic_and_sorted(self, pa):
        d = forest_domination(pa)
        assert d == forest_domination(pa)
        assert list(d) == sorted(set(d))


class TestCorrectness:
    @given(forest_arrays(max_n=60))
    def test_dominates(self, pa):
        d = forest_domination(pa)
        assert closed_neighborhood(build_adjacency(pa), d) == tuple(
            range(1, pa.n + 1)
        )

    @given(forest_arrays(max_n=60))
    def test_matches_dp(self, pa):
        assert len(forest_domination(pa)) == domination_number_dp(
            build_adjacency(pa)
        )

    def test_exhaustive_small_forests(self):
        # full optimality over every forest array with n <= 6
        for n in range(7):
            for pa in enumerate_parent_arrays(n, "forests") if n else [ParentArray(0, ())]:
                f = build_adjacency(pa)
                d = forest_domination(pa)
                assert is_dominating_set(f, d)
                assert len(d) == min_dominating_set(f)[0]


def _labels(n, bound):
    """Initial labels that start the vertices of ``bound`` Bound and every
    other vertex Outside."""
    labels = bytearray([LabelState.OUTSIDE]) * (n + 1)
    for v in bound:
        labels[v] = LabelState.BOUND
    return bytes(labels)


class TestOutside:
    """Every vertex that ``labels`` starts Outside stays out of the pass."""

    def test_flagged_parent_makes_a_root(self):
        # P5 without vertex 4: 5 is an isolated root, taken at its visit,
        # and 2 dominates 1-2-3
        assert forest_domination(path_array(5), labels=_labels(5, (1, 2, 3, 5))) == (2, 5)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_every_vertex_flagged_gives_the_empty_set(self, n):
        trace = []
        assert forest_domination(star_array(n), trace, labels=_labels(n, ())) == ()
        assert trace == []

    def test_index_zero_is_outside_whatever_it_holds(self):
        # a root's parent is the sentinel: a Bound sentinel promotes nothing
        for state in LabelState:
            labels = bytes([state]) + bytes(5)
            assert forest_domination(path_array(5), labels=labels) == (1, 4)

    @pytest.mark.parametrize(
        "labels",
        [b"", bytes(5), bytes(7), bytes(600)],
        ids=["empty", "n", "n+2", "long"],
    )
    def test_labels_must_hold_n_plus_one_bytes(self, labels):
        trace = []
        with pytest.raises(ValidationError, match=r"labels must hold 6 states, each in 0\.\.3"):
            forest_domination(path_array(5), trace, labels=labels)
        assert trace == []

    @pytest.mark.parametrize("value", [4, 7, 255])
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_labels_must_be_states(self, value, at):
        labels = bytearray(6)
        labels[at] = value
        trace = []
        with pytest.raises(ValidationError, match=r"labels must hold 6 states, each in 0\.\.3"):
            forest_domination(path_array(5), trace, labels=bytes(labels))
        assert trace == []

    def test_labels_are_not_written(self):
        labels = bytearray(_labels(5, (1, 2, 3, 4, 5)))
        before = bytes(labels)
        assert forest_domination(path_array(5), labels=labels) == (1, 4)
        assert labels == before

    @given(forest_arrays(max_n=40), st.data())
    def test_matches_plain_pass_on_induced_forest(self, pa, data):
        flags = data.draw(st.lists(st.booleans(), min_size=pa.n, max_size=pa.n))
        inside = tuple(v for v in range(1, pa.n + 1) if not flags[v - 1])
        f, labels = induced_forest(build_adjacency(pa), list(inside))
        plain = forest_domination(ParentArray(f.n, f.parent))
        d = forest_domination(pa, labels=_labels(pa.n, inside))
        assert d == tuple(labels[h - 1] for h in plain)
        assert len(d) == domination_number_dp(f)


class TestInto:
    """With ``into`` the pass marks its set in the caller's flags and
    returns None; without it, it returns the same set as a tuple."""

    @given(forest_arrays(max_n=40), st.data())
    def test_marks_the_set_it_returns(self, pa, data):
        flags = data.draw(st.lists(st.booleans(), min_size=pa.n, max_size=pa.n))
        labels = _labels(pa.n, tuple(v for v in range(1, pa.n + 1) if not flags[v - 1]))
        for kwargs in ({}, {"labels": labels}):
            into = bytearray(pa.n + 1)
            trace, marked_trace = [], []
            dom = forest_domination(pa, trace, **kwargs)
            assert forest_domination(pa, marked_trace, into=into, **kwargs) is None
            assert into == bytes(v in dom for v in range(pa.n + 1))
            assert marked_trace == trace

    def test_other_flags_are_left_as_they_are(self):
        into = bytearray(b"\1\0\0\0\0\1")
        forest_domination(path_array(5), into=into)
        assert into == bytearray(b"\1\1\0\0\1\1")

    @pytest.mark.parametrize("size", [0, 5, 7])
    def test_into_must_hold_n_plus_one_flags(self, size):
        with pytest.raises(ValidationError, match=f"into must hold 6 flags, got {size}"):
            forest_domination(path_array(5), into=bytearray(size))


class TestInitialLabels:
    """Required and Free starts: the set is a smallest one that holds every
    Required vertex and dominates every Bound one, within the vertices
    that do not start Outside."""

    def test_required_leaf_is_taken(self):
        # P3 with leaf 3 Required: 3 is taken and frees 2, then 1 is
        # taken, as its only neighbour is Free
        labels = bytes([LabelState.OUTSIDE, 0, 0, LabelState.REQUIRED])
        assert forest_domination(path_array(3), labels=labels) == (1, 3)

    def test_free_vertices_need_no_domination(self):
        labels = bytes([LabelState.OUTSIDE, *[LabelState.FREE] * 5])
        assert forest_domination(path_array(5), labels=labels) == ()

    @settings(max_examples=150)
    @given(forest_arrays(max_n=9), st.data())
    def test_matches_exhaustive_search(self, pa, data):
        states = data.draw(st.lists(
            st.sampled_from(list(LabelState)), min_size=pa.n, max_size=pa.n
        ))
        labels = bytes([LabelState.OUTSIDE, *states])
        visited = [v for v in range(1, pa.n + 1) if states[v - 1] != LabelState.OUTSIDE]
        required = {v for v in visited if states[v - 1] == LabelState.REQUIRED}
        needy = {v for v in visited if states[v - 1] != LabelState.FREE}
        t = build_adjacency(pa)
        # neighbours within the visited vertices
        near = {v: {v, *t.children[v - 1], t.parent[v - 1]} & set(visited) for v in visited}
        best = next(
            k for k in range(len(visited) + 1)
            if any(
                required <= set(s) and needy <= set().union(*(near[v] for v in s))
                for s in combinations(visited, k)
            )
        )
        d = forest_domination(pa, labels=labels)
        assert len(d) == best
        assert required <= set(d) <= set(visited)
        assert needy <= set().union(*(near[v] for v in d))


class TestAdditivity:
    @given(forest_arrays(min_n=1, max_n=20), forest_arrays(min_n=1, max_n=20))
    def test_concatenated_forests_sum(self, a, b):
        shifted = tuple(0 if p == 0 else p + a.n for p in b.parent)
        merged = ParentArray(a.n + b.n, tuple(a.parent) + shifted)
        assert len(forest_domination(merged)) == len(forest_domination(a)) + len(
            forest_domination(b)
        )
