"""Leaf extraction, core forest construction, and the assembled set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdom import (
    ParentArray,
    ValidationError,
    build_adjacency,
    closed_neighborhood,
    domination_number_dp,
    enumerate_parent_arrays,
    forest_domination,
    induced_forest,
    is_steiner_set,
    leaf_set,
    min_steiner_dominating_set,
    relabel_bfs,
    steiner_domination,
    to_edge_list,
)

from steinerdom.steiner_domination import CoreForest

from conftest import path_array, star_array, tree_arrays


class TestCoreForest:
    def test_p5_midpoint_survives(self):
        r = steiner_domination(path_array(5))
        assert (r.core.m, r.core.to_tree) == (1, (3,))
        assert _core_parents(path_array(5), r) == (0,)

    def test_star_core_empty(self):
        assert steiner_domination(star_array(4)).core.m == 0

    def test_double_spider_isolated_pair(self):
        # leaves {2,7,8}; N[L] = {1,2,5,6,7,8}; survivors 3 and 4 have
        # their common neighbor 1 outside the core, so both become roots
        pa = ParentArray(8, (0, 1, 1, 1, 3, 4, 5, 6))
        r = steiner_domination(pa)
        assert r.leaves == (2, 7, 8)
        assert (r.core.m, r.core.to_tree) == (2, (3, 4))
        assert _core_parents(pa, r) == (0, 0)

    def test_p8_inner_path_survives(self):
        r = steiner_domination(path_array(8))
        assert (r.core.m, r.core.to_tree) == (4, (3, 4, 5, 6))
        assert _core_parents(path_array(8), r) == (0, 1, 2, 3)

    @pytest.mark.slow
    def test_membership_definition_exhaustive(self):
        """Core membership is exactly 'outside N[leaves]' and the core's
        dominating set is the plain pass on the induced forest, on every
        tree with up to 9 vertices."""
        for n in range(2, 10):
            for pa in enumerate_parent_arrays(n, "trees"):
                _assert_core_matches_definition(pa)

    @given(tree_arrays(min_n=1, max_n=60), st.data())
    def test_membership_definition_rerooted(self, pa, data):
        """The same definition on random trees, also re-rooted at a drawn
        vertex, so the root is a leaf (or K1, or P2) as often as not."""
        root = data.draw(st.integers(1, pa.n), label="root")
        _assert_core_matches_definition(pa)
        _assert_core_matches_definition(relabel_bfs(to_edge_list(pa), root)[0])


def _core_parents(pa, r):
    """Parent entries of the forest induced by the solver's core."""
    return tuple(induced_forest(build_adjacency(pa), r.core.to_tree)[0].parent)


def _assert_core_matches_definition(pa):
    """The solver's leaves are leaf_set's, its core is the vertices outside
    N[leaves] in ascending order, and its dominating set of the core is the
    plain forest pass on the induced forest, mapped back to tree labels."""
    n = pa.n
    t = build_adjacency(pa)
    leaves = leaf_set(t)
    r = steiner_domination(pa)
    assert r.leaves == leaves
    excluded = set(closed_neighborhood(t, leaves))
    core, labels = induced_forest(t, [v for v in range(1, n + 1) if v not in excluded])
    assert r.core.to_tree == labels
    assert r.core.m == core.n == len(labels)
    for h, tree_label in enumerate(labels, start=1):
        tp = t.parent[tree_label - 1]
        expected = labels.index(tp) + 1 if tp in labels else 0
        assert core.parent[h - 1] == expected < h
    plain = forest_domination(ParentArray(core.n, core.parent))
    assert r.core_dominating_set == tuple(labels[h - 1] for h in plain)


class TestResultViews:
    """The result keeps three byte flags; every tuple it offers is read off
    them when it is read."""

    @given(tree_arrays(min_n=1, max_n=60), st.data())
    def test_views_match_the_definitions(self, pa, data):
        # re-rooted at a drawn vertex, so the root is a leaf as often as not
        root = data.draw(st.integers(1, pa.n), label="root")
        pa = relabel_bfs(to_edge_list(pa), root)[0]
        n = pa.n
        t = build_adjacency(pa)
        leaves = leaf_set(t)
        excluded = set(closed_neighborhood(t, leaves))
        core, labels = induced_forest(t, [v for v in range(1, n + 1) if v not in excluded])
        plain = forest_domination(ParentArray(core.n, core.parent))
        core_set = tuple(labels[h - 1] for h in plain)
        r = steiner_domination(pa)
        assert r.leaves == leaves
        assert r.core == CoreForest(core.n, labels)
        assert r.core_dominating_set == core_set
        assert r.steiner_dominating_set == tuple(sorted(leaves + core_set))
        assert r.size == len(leaves) + len(core_set)
        for flags, members in (
            (r.is_leaf, leaves), (r.in_core, labels), (r.in_set, leaves + core_set)
        ):
            assert type(flags) is bytes
            assert flags == bytes(v in members for v in range(n + 1))


class TestSteinerDomination:
    def test_p5(self):
        r = steiner_domination(path_array(5))
        assert r.steiner_dominating_set == (1, 3, 5)
        assert (r.size, len(r.leaves) + len(r.core_dominating_set)) == (3, 3)

    def test_star_leaves_only(self):
        r = steiner_domination(star_array(4))
        assert r.steiner_dominating_set == (2, 3, 4)
        assert r.size == 3

    def test_p4_empty_core(self):
        r = steiner_domination(path_array(4))
        assert r.steiner_dominating_set == (1, 4)
        assert r.core.m == 0

    def test_double_spider_construction_overshoots(self):
        # the construction is forced to 5 while {1,2,7,8} suffices; the
        # gap is the audit harness's reason to exist
        pa = ParentArray(8, (0, 1, 1, 1, 3, 4, 5, 6))
        r = steiner_domination(pa)
        assert r.steiner_dominating_set == (2, 3, 4, 7, 8)
        assert (r.size, len(r.leaves) + len(r.core_dominating_set)) == (5, 5)
        assert min_steiner_dominating_set(build_adjacency(pa)) == (4, (1, 2, 7, 8))

    def test_k1_convention(self):
        r = steiner_domination(ParentArray(1, (0,)))
        assert r.steiner_dominating_set == (1,)
        assert r.size == 1

    def test_p2_both_leaves(self):
        assert steiner_domination(path_array(2)).steiner_dominating_set == (1, 2)

    def test_root_leaf_test_skips_a_straddled_one(self):
        # a path on 1..513, then 514 under 256 and 515 under 512: entries
        # 511 then 512 and 256 then 512 hold the bytes of a 1 across two
        # entries when little-endian, yet the root has one child
        pa = ParentArray(515, (0,) + tuple(range(1, 513)) + (256, 512))
        r = steiner_domination(pa)
        assert r.leaves == (1, 513, 514, 515) == leaf_set(build_adjacency(pa))
        assert is_steiner_set(build_adjacency(pa), r.steiner_dominating_set)

    def test_forest_rejected(self):
        with pytest.raises(ValidationError):
            steiner_domination(ParentArray(4, (0, 0, 1, 2)))

    @given(tree_arrays(min_n=2, max_n=60))
    def test_leaves_core_disjoint_union(self, pa):
        r = steiner_domination(pa)
        assert set(r.leaves).isdisjoint(r.core_dominating_set)
        assert tuple(sorted(set(r.leaves) | set(r.core_dominating_set))) == (
            r.steiner_dominating_set
        )
        assert r.size == len(r.steiner_dominating_set) == (
            len(r.leaves) + len(r.core_dominating_set)
        )

    @given(tree_arrays(min_n=2, max_n=60))
    def test_output_is_steiner_and_dominating(self, pa):
        t = build_adjacency(pa)
        sd = steiner_domination(pa).steiner_dominating_set
        assert is_steiner_set(t, sd)
        assert closed_neighborhood(t, sd) == tuple(range(1, pa.n + 1))

    @given(tree_arrays(min_n=2, max_n=60))
    def test_size_equals_leaf_count_plus_core_domination(self, pa):
        # recomputed from scratch through the independent dynamic program
        r = steiner_domination(pa)
        t = build_adjacency(pa)
        assert r.size == len(leaf_set(t)) + domination_number_dp(
            induced_forest(t, r.core.to_tree)[0]
        )


class TestFormulaValue:
    def test_p7(self):
        assert steiner_domination(path_array(7)).size == 3

    def test_p8(self):
        assert steiner_domination(path_array(8)).size == 4

    @pytest.mark.parametrize("n", range(3, 9))
    def test_stars(self, n):
        assert steiner_domination(star_array(n)).size == n - 1

    @settings(max_examples=30)
    @given(tree_arrays(min_n=2, max_n=40))
    def test_root_invariance(self, pa):
        """Re-rooting the same unrooted tree anywhere cannot change the
        value: leaves, core, and core domination are label-independent."""
        el = to_edge_list(pa)
        baseline = steiner_domination(pa).size
        for root in range(1, pa.n + 1):
            rerooted = relabel_bfs(el, root=root)[0]
            assert steiner_domination(rerooted).size == baseline

    @settings(max_examples=50)
    @given(tree_arrays(min_n=2, max_n=10))
    def test_never_below_exact_optimum(self, pa):
        t = build_adjacency(pa)
        assert min_steiner_dominating_set(t)[0] <= steiner_domination(pa).size
