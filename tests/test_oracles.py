"""Exact oracles: spans, domination enumeration and DP, Steiner variants."""

import math
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerdom import (
    CapExceededError,
    ParentArray,
    ValidationError,
    build_adjacency,
    domination_number_dp,
    enumerate_parent_arrays,
    gen,
    induced_forest,
    is_dominating_set,
    is_steiner_set,
    leaf_set,
    min_dominating_set,
    min_steiner_dominating_set,
    steiner_number,
    steiner_subtree,
)

from steinerdom.oracles import (
    DOMINATING_CAP,
    _closed_masks,
    _leaf_superset_search,
    _prune_to_span,
    _subset_planes,
)

from conftest import adjacency, forest_arrays, path_array, tree_arrays

P5 = adjacency(0, 1, 2, 3, 4)
STAR4 = adjacency(0, 1, 1, 1)


def bfs_distance(t, u, v):
    """Independent path-length computation for cross-checking spans."""
    adj = [[] for _ in range(t.n + 1)]
    for i, p in enumerate(t.parent):
        if p:
            adj[i + 1].append(p)
            adj[p].append(i + 1)
    dist = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        if x == v:
            return dist[x]
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    raise AssertionError("disconnected")


class TestSteinerSubtree:
    def test_p5_endpoints_span_everything(self):
        assert steiner_subtree(P5, (1, 5)) == (1, 2, 3, 4, 5)

    def test_p5_subpath(self):
        assert steiner_subtree(P5, (2, 4)) == (2, 3, 4)

    def test_star_passes_through_center(self):
        assert steiner_subtree(STAR4, (2, 3)) == (1, 2, 3)

    def test_single_terminal(self):
        assert steiner_subtree(P5, (3,)) == (3,)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            steiner_subtree(P5, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            steiner_subtree(P5, (6,))

    @given(tree_arrays(min_n=2, max_n=30), st.data())
    def test_pair_span_is_path_distance(self, pa, data):
        t = build_adjacency(pa)
        u = data.draw(st.integers(1, pa.n))
        v = data.draw(st.integers(1, pa.n))
        assert len(steiner_subtree(t, (u, v))) - 1 == bfs_distance(t, u, v)

    @given(tree_arrays(min_n=2, max_n=20), st.data())
    def test_distance_monotone_under_terminal_growth(self, pa, data):
        t = build_adjacency(pa)
        w2 = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(1, pa.n), min_size=1, max_size=pa.n)
                )
            )
        )
        w1 = tuple(sorted(data.draw(st.sets(st.sampled_from(w2), min_size=1))))
        # nested spans, so the edge count len(span) - 1 cannot shrink either
        assert set(steiner_subtree(t, w1)) <= set(steiner_subtree(t, w2))

    @given(tree_arrays(min_n=2, max_n=30), st.data())
    def test_span_invariants(self, pa, data):
        t = build_adjacency(pa)
        w = tuple(sorted(data.draw(st.sets(st.integers(1, pa.n), min_size=1))))
        span = steiner_subtree(t, w)
        assert set(w) <= set(span)
        assert span == tuple(sorted(set(span)))
        # a subtree: all but one of its vertices have their parent in it
        inside = set(span)
        assert sum(t.parent[v - 1] in inside for v in span) == len(span) - 1


class TestIsSteinerSet:
    def test_p5(self):
        assert is_steiner_set(P5, (1, 5))
        assert not is_steiner_set(P5, (1, 4))

    @given(tree_arrays(min_n=2, max_n=60))
    def test_leaf_set_always_spans(self, pa):
        t = build_adjacency(pa)
        assert is_steiner_set(t, leaf_set(t))

    @pytest.mark.parametrize("w", [(), (0, 1), (5, 6)])
    def test_bad_terminal_set_rejected(self, w):
        with pytest.raises(ValidationError):
            is_steiner_set(P5, w)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(leaf_set, id="leaf_set"),
        pytest.param(lambda t: steiner_subtree(t, (1,)), id="steiner_subtree"),
        pytest.param(lambda t: is_steiner_set(t, (1, 2)), id="is_steiner_set"),
        pytest.param(min_steiner_dominating_set, id="min_steiner_dominating_set"),
        pytest.param(
            # the forest grown to 19 vertices, past the bit-sliced cap
            lambda f: min_steiner_dominating_set(
                adjacency(*f.parent, *range(f.n, 19))
            ),
            id="min_steiner_dominating_set_leaf_supersets",
        ),
        pytest.param(steiner_number, id="steiner_number"),
    ],
)
def test_tree_only_entry_points_reject_a_forest(call):
    """Each entry point that needs a single tree runs the one tree check."""
    with pytest.raises(ValidationError, match="vertex 2 is a second root"):
        call(adjacency(0, 0))


class TestIsDominatingSet:
    def test_p5(self):
        assert is_dominating_set(P5, (2, 4))
        assert not is_dominating_set(P5, (1, 5))

    def test_star_center(self):
        assert is_dominating_set(STAR4, (1,))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            is_dominating_set(P5, (0,))


class TestMinDominatingSet:
    def test_p5_first_witness(self):
        # {1,4} dominates and precedes {2,4} lexicographically
        assert min_dominating_set(P5) == (2, (1, 4))

    def test_star(self):
        assert min_dominating_set(STAR4) == (1, (1,))

    def test_two_isolated(self):
        assert min_dominating_set(adjacency(0, 0)) == (2, (1, 2))

    def test_empty(self):
        assert min_dominating_set(adjacency()) == (0, ())

    def test_cap(self):
        with pytest.raises(CapExceededError):
            min_dominating_set(build_adjacency(path_array(21)))

    @pytest.mark.parametrize("family", ["path", "binary", "prufer"])
    def test_at_the_cap_matches_the_dp(self, family):
        f = build_adjacency(gen(family, n=20, seed=1))
        size, witness = min_dominating_set(f)
        assert size == len(witness) == domination_number_dp(f)
        assert is_dominating_set(f, witness)

    @given(forest_arrays(min_n=1, max_n=12))
    def test_witness_is_consistent(self, pa):
        f = build_adjacency(pa)
        size, witness = min_dominating_set(f)
        assert len(witness) == size
        assert is_dominating_set(f, witness)


class TestDominationDp:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_paths(self, k):
        assert domination_number_dp(build_adjacency(path_array(k))) == -(-k // 3)

    def test_star(self):
        assert domination_number_dp(adjacency(0, 1, 1, 1, 1)) == 1

    def test_empty(self):
        assert domination_number_dp(adjacency()) == 0

    @pytest.mark.slow
    def test_concordance_exhaustive_forests(self):
        """The DP and the subset enumeration agree on every forest with
        up to 9 vertices (409,113 instances)."""
        checked = 0
        for n in range(1, 10):
            for pa in enumerate_parent_arrays(n, "forests"):
                f = build_adjacency(pa)
                assert min_dominating_set(f)[0] == domination_number_dp(f)
                checked += 1
        assert checked == 409113

    @pytest.mark.slow
    def test_concordance_random_forests(self):
        rng = random.Random(20240811)
        for _ in range(2000):
            n = rng.randint(1, DOMINATING_CAP - 2)
            pa = ParentArray(
                n, tuple(0 if i == 0 else rng.randint(0, i) for i in range(n))
            )
            f = build_adjacency(pa)
            assert min_dominating_set(f)[0] == domination_number_dp(f)


class TestInducedForest:
    def test_relabels_in_tree_order(self):
        # P5 without 3: 1-2 and 4-5 become two trees labelled 1-2 and 3-4
        f, labels = induced_forest(P5, (5, 4, 2, 1))
        assert labels == (1, 2, 4, 5)
        assert (f.n, tuple(f.parent), f.degree) == (4, (0, 1, 0, 3), (1, 1, 1, 1))

    def test_empty_selection(self):
        f, labels = induced_forest(P5, ())
        assert (f.n, labels) == (0, ())

    @pytest.mark.parametrize("vertices", [(0, 1), (5, 6)])
    def test_vertex_out_of_range(self, vertices):
        with pytest.raises(ValidationError):
            induced_forest(P5, vertices)


class TestMinSteinerDominatingSet:
    def test_p5(self):
        assert min_steiner_dominating_set(P5) == (3, (1, 2, 5))

    def test_star(self):
        assert min_steiner_dominating_set(STAR4) == (3, (2, 3, 4))

    def test_double_spider(self):
        t = adjacency(0, 1, 1, 1, 3, 4, 5, 6)
        assert min_steiner_dominating_set(t) == (4, (1, 2, 7, 8))
        assert _leaf_superset_search(t) == (4, (1, 2, 7, 8))

    def test_p2(self):
        assert min_steiner_dominating_set(adjacency(0, 1)) == (2, (1, 2))

    def test_caps_by_mode(self):
        # bit-sliced through n = 18, leaf supersets through n = 24
        assert min_steiner_dominating_set(build_adjacency(path_array(19)))[0] == 7
        with pytest.raises(
            CapExceededError, match=r"^n=25 exceeds Steiner-dominating cap 24$"
        ):
            min_steiner_dominating_set(build_adjacency(path_array(25)))

    @given(tree_arrays(min_n=2, max_n=10))
    def test_witness_passes_both_definitions(self, pa):
        t = build_adjacency(pa)
        size, witness = min_steiner_dominating_set(t)
        assert len(witness) == size
        assert is_steiner_set(t, witness)
        assert is_dominating_set(t, witness)

    @settings(max_examples=60)
    @given(tree_arrays(min_n=2, max_n=16))
    def test_leaf_superset_search_agrees_with_bit_sliced(self, pa):
        t = build_adjacency(pa)
        assert min_steiner_dominating_set(t) == _leaf_superset_search(t)

    def test_leaf_superset_search_agrees_with_bit_sliced_on_every_tree_to_8(self):
        for n in range(1, 9):
            for pa in enumerate_parent_arrays(n, "trees"):
                t = build_adjacency(pa)
                assert min_steiner_dominating_set(t) == _leaf_superset_search(t), pa

    @pytest.mark.parametrize("family", ["path", "binary", "prufer"])
    def test_pruned_agrees_with_unpruned_at_the_cap(self, family):
        t = build_adjacency(gen(family, n=18, seed=1))
        size, witness = min_steiner_dominating_set(t)
        assert (size, witness) == _leaf_superset_search(t)
        assert is_steiner_set(t, witness) and is_dominating_set(t, witness)


def _reference_min_dominating_set(f):
    """The combinations enumeration min_dominating_set ran before it was
    bit-sliced: sizes ascending, each in lexicographic order."""
    n = f.n
    if n == 0:
        return 0, ()
    masks = _closed_masks(f)
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            cover = 0
            for idx in combo:
                cover |= masks[idx]
            if cover == full:
                return k, tuple(i + 1 for i in combo)
    raise AssertionError("the full vertex set always dominates")


def _reference_min_steiner_dominating_set(t):
    """The unpruned combinations enumeration, each candidate pruned to its
    span."""
    n = t.n
    masks = _closed_masks(t)
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            cover = 0
            for v in combo:
                cover |= masks[v - 1]
            if cover == full and _prune_to_span(t, combo)[1] == n:
                return k, combo
    raise AssertionError("the full vertex set is Steiner and dominating")


def _reference_steiner_number(t):
    n = t.n
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            if _prune_to_span(t, combo)[1] == n:
                return k
    raise AssertionError("the full vertex set is a Steiner set")


class TestBitSlicedOracles:
    """The bit-sliced oracles return the (size, witness) of the combinations
    enumeration they replaced."""

    def test_steiner_oracles_match_the_enumeration_on_every_tree_to_8(self):
        for n in range(1, 9):
            for pa in enumerate_parent_arrays(n, "trees"):
                t = build_adjacency(pa)
                expected = _reference_min_steiner_dominating_set(t)
                assert min_steiner_dominating_set(t) == expected, pa
                assert steiner_number(t) == _reference_steiner_number(t), pa

    def test_min_dominating_set_matches_the_enumeration_on_every_forest_to_6(self):
        forests = [ParentArray(0, ())]
        for n in range(1, 7):
            forests += enumerate_parent_arrays(n, "forests")
        for pa in forests:
            f = build_adjacency(pa)
            assert min_dominating_set(f) == _reference_min_dominating_set(f), pa

    @pytest.mark.parametrize("n", range(11))
    def test_planes_mark_members_and_sizes(self, n):
        """Subset s holds label v iff bit n - v of s is set; the size
        classes partition all 2^n subsets, C(n, k) in class k."""
        has, sizes = _subset_planes(n)
        assert len(has) == n + 1 and has[0] == 0
        assert len(sizes) == n + 1
        assert [size_k.bit_count() for size_k in sizes] == [
            math.comb(n, k) for k in range(n + 1)
        ]
        for s in range(1 << n):
            members = [v for v in range(1, n + 1) if has[v] >> s & 1]
            assert members == [v for v in range(1, n + 1) if s >> (n - v) & 1]
            assert sizes[len(members)] >> s & 1


class TestSteinerNumber:
    def test_p5(self):
        assert steiner_number(P5) == 2

    def test_star(self):
        assert steiner_number(STAR4) == 3

    def test_cap(self):
        with pytest.raises(CapExceededError):
            steiner_number(build_adjacency(path_array(19)))

    @settings(max_examples=60)
    @given(tree_arrays(min_n=2, max_n=12))
    def test_equals_leaf_count(self, pa):
        t = build_adjacency(pa)
        assert steiner_number(t) == len(leaf_set(t))


@pytest.mark.slow
def test_minimum_steiner_sets_contain_every_leaf():
    """Unpruned enumeration of ALL minimum Steiner sets: each one contains
    the full leaf set (exhaustive n <= 7, randomized n <= 12)."""

    def check(t):
        leaves = set(leaf_set(t))
        k = steiner_number(t)
        found = 0
        for combo in combinations(range(1, t.n + 1), k):
            if is_steiner_set(t, combo):
                found += 1
                assert leaves <= set(combo)
        assert found >= 1

    for n in range(2, 8):
        for pa in enumerate_parent_arrays(n, "trees"):
            check(build_adjacency(pa))
    rng = random.Random(424242)
    for _ in range(150):
        n = rng.randint(2, 12)
        check(build_adjacency(gen("prufer", n=n, seed=rng.getrandbits(64))))
