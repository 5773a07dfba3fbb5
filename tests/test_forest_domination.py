"""The three-state forest pass: optimality, domination, state machine."""

import pytest
from hypothesis import given
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


class TestOutside:
    def test_flagged_parent_makes_a_root(self):
        # P5 without vertex 4: 5 is an isolated root, taken at its visit,
        # and 2 dominates 1-2-3
        flags = bytes([1, 0, 0, 0, 1, 0])
        assert forest_domination(path_array(5), outside=flags) == (2, 5)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_every_vertex_flagged_gives_the_empty_set(self, n):
        trace = []
        assert forest_domination(star_array(n), trace, outside=b"\1" * (n + 1)) == ()
        assert trace == []

    def test_flag_count_must_be_n_plus_one(self):
        with pytest.raises(ValidationError):
            forest_domination(path_array(5), outside=bytes(5))

    @given(forest_arrays(max_n=40), st.data())
    def test_matches_plain_pass_on_induced_forest(self, pa, data):
        flags = data.draw(st.lists(st.booleans(), min_size=pa.n, max_size=pa.n))
        outside = bytes([1] + flags)
        f, labels = induced_forest(
            build_adjacency(pa), [v for v in range(1, pa.n + 1) if not outside[v]]
        )
        plain = forest_domination(ParentArray(f.n, f.parent))
        d = forest_domination(pa, outside=outside)
        assert d == tuple(labels[h - 1] for h in plain)
        assert len(d) == domination_number_dp(f)


class TestAdditivity:
    @given(forest_arrays(min_n=1, max_n=20), forest_arrays(min_n=1, max_n=20))
    def test_concatenated_forests_sum(self, a, b):
        shifted = tuple(0 if p == 0 else p + a.n for p in b.parent)
        merged = ParentArray(a.n + b.n, a.parent + shifted)
        assert len(forest_domination(merged)) == len(forest_domination(a)) + len(
            forest_domination(b)
        )
