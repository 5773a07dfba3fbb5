"""Data model: parsing, validation, relabeling, neighborhood primitives."""

from collections import deque
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from steinerdom import (
    EdgeList,
    ParentArray,
    ParseError,
    ValidationError,
    build_adjacency,
    closed_neighborhood,
    enumerate_parent_arrays,
    format_parent_file,
    leaf_set,
    parse_edge_list,
    parse_parent_file,
    relabel_bfs,
    to_edge_list,
    validate,
)

from conftest import adjacency, forest_arrays, path_array, star_array, tree_arrays


class TestParentArray:
    def test_valid(self):
        pa = ParentArray(5, (0, 1, 2, 3, 4))
        assert pa.roots() == (1,)

    def test_empty_allowed(self):
        assert ParentArray(0, ()).roots() == ()

    def test_negative_n(self):
        with pytest.raises(ValidationError):
            ParentArray(-1, ())

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ParentArray(3, (0, 1))

    def test_parent_not_below_vertex(self):
        # vertex 2 may only point at 0 or 1
        with pytest.raises(ValidationError):
            ParentArray(3, (0, 2, 1))

    def test_negative_parent(self):
        with pytest.raises(ValidationError):
            ParentArray(2, (0, -1))

    def test_multiple_roots(self):
        assert ParentArray(4, (0, 0, 1, 2)).roots() == (1, 2)


class TestEdgeList:
    def test_valid(self):
        EdgeList(3, ((1, 2), (2, 3)))

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            EdgeList(3, ((1, 4),))

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            EdgeList(3, ((2, 2),))

    def test_duplicate_either_orientation(self):
        with pytest.raises(ValidationError):
            EdgeList(3, ((1, 2), (2, 1)))


class TestParseParentFile:
    def test_p5(self):
        assert parse_parent_file("5\n0 1 2 3 4\n").parent == (0, 1, 2, 3, 4)

    def test_crlf(self):
        assert parse_parent_file("3\r\n0 1 1\r\n").n == 3

    def test_no_trailing_newline(self):
        assert parse_parent_file("2\n0 1").n == 2

    def test_round_trip(self):
        text = format_parent_file(ParentArray(4, (0, 1, 1, 3)))
        assert text == "4\n0 1 1 3\n"
        assert parse_parent_file(text).parent == (0, 1, 1, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "x\n0 1\n",  # non-integer count
            "0\n\n",  # n < 1
            "2\n",  # missing parent line
            "2\n0\n",  # too few entries
            "2\n0 1 1\n",  # too many entries
            "2\n1 1\n",  # vertex 1 must be a root
            "3\n0 1 3\n",  # parent must stay below its vertex
            "2\n0 a\n",  # non-integer entry
            "",  # empty file
            pytest.param("3\n0 1 \uff12\n", id="full-width-digit"),
            pytest.param("1_0\n" + "0 " * 10 + "\n", id="underscore-grouping"),
            pytest.param("2\n0 +1\n", id="sign"),
            pytest.param("2\n0 1\r2\n", id="bare-cr"),
            pytest.param("1\n" + "0" * 5000 + "\n", id="over-int-digit-cap"),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_parent_file(text)

    def test_diagnostic_mentions_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_parent_file("3\n0 1 9\n")

    @given(tree_arrays(min_n=1, max_n=30))
    def test_format_parse_inverse(self, pa):
        assert parse_parent_file(format_parent_file(pa)) == pa


class TestParseEdgeList:
    def test_p5(self):
        el = parse_edge_list("5\n1 2\n2 3\n3 4\n4 5\n")
        assert el.n == 5 and len(el.edges) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "3\n1 2\n",  # needs exactly n-1 edge lines
            "3\n1 2\n2 3\n1 3\n",  # too many lines
            "3\n1 2\n2 9\n",  # label out of range
            "3\n1 2\n3\n",  # not two labels
            "3\n1 2\na b\n",  # non-integer
            "2\n1 1\n",  # self loop
            pytest.param("3\n1 2\n2 +3\n", id="sign"),
            pytest.param("3\n1 2\n2 \uff13\n", id="full-width-digit"),
            pytest.param("3\n1 2\n2 1\n", id="duplicate-edge"),
            pytest.param("3\n1 2 3\n4\n", id="labels-split-wrongly"),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError, match=r"^line \d+: "):
            parse_edge_list(text)

    def test_diagnostic_names_the_edge_line(self):
        with pytest.raises(ParseError, match="^line 5: duplicate edge"):
            parse_edge_list("4\n1 2\n\n2 3\n2 1\n")

    @given(tree_arrays(min_n=1, max_n=30))
    def test_round_trip(self, pa):
        el = to_edge_list(pa)
        text = f"{el.n}\n" + "".join(f"{u} {v}\n" for u, v in el.edges)
        assert parse_edge_list(text).edges == el.edges


# the grammar's characters plus a few that it must reject
_FUZZ_ALPHABET = st.sampled_from(list("0123456789 \t\r\n+_-\uff12\xff"))


@pytest.mark.parametrize("parse", [parse_parent_file, parse_edge_list])
@example(text="9" * 4400)
@example(text="2\n0 " + "1" * 4400 + "\n")
@example(text="2\n1 " + "2" * 4400 + "\n")
@given(text=st.text(_FUZZ_ALPHABET, max_size=40))
def test_any_text_parses_or_names_a_line(parse, text):
    """No input escapes as anything but a line-numbered ParseError."""
    try:
        parse(text)
    except ParseError as exc:
        assert str(exc).startswith("line ")


class TestRelabelBfs:
    def test_p5_explicit_midpoint_root(self):
        pa, label_map = relabel_bfs(to_edge_list(path_array(5)), root=3)
        assert pa.parent == (0, 1, 1, 2, 3)
        assert label_map[3 - 1] == 1  # the chosen root becomes vertex 1

    def test_p5_default_root_is_smallest_max_degree(self):
        # degrees on P5 are 1,2,2,2,1; ties break to the smallest label 2
        pa, label_map = relabel_bfs(to_edge_list(path_array(5)))
        assert label_map[2 - 1] == 1
        assert pa.parent == (0, 1, 1, 3, 4)

    def test_star_roots_at_center(self):
        pa, label_map = relabel_bfs(to_edge_list(star_array(6)))
        assert label_map[0] == 1
        assert pa.parent == (0, 1, 1, 1, 1, 1)

    def test_root_out_of_range(self):
        with pytest.raises(ValidationError):
            relabel_bfs(to_edge_list(path_array(3)), root=4)

    def test_disconnected_rejected(self):
        # 4 vertices, 3 edges, but one is unreachable twice over
        el = EdgeList(4, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(ValidationError, match="disconnected"):
            relabel_bfs(el)

    @pytest.mark.parametrize(
        "n, edges, position",
        [
            (4, ((1, 2), (1, 3), (2, 3)), 2),
            (5, ((4, 5), (2, 1), (3, 2), (1, 3)), 3),
            # two cycles: the first closed in list order is away from the
            # BFS root (vertex 1)
            (7, ((4, 5), (5, 6), (1, 2), (6, 4), (2, 3), (3, 1)), 3),
        ],
    )
    def test_disconnected_names_the_edge_closing_a_cycle(self, n, edges, position):
        with pytest.raises(ValidationError) as info:
            relabel_bfs(EdgeList(n, edges))
        assert info.value.position == position
        u, v = edges[position]
        assert f"edge ({u}, {v}) closes a cycle" in str(info.value)

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValidationError):
            relabel_bfs(EdgeList(3, ((1, 2),)))

    def test_single_vertex(self):
        assert relabel_bfs(EdgeList(1, ()))[0] == ParentArray(1, (0,))

    @given(tree_arrays(min_n=1, max_n=40))
    def test_round_trip_preserves_shape(self, pa):
        # the relabeled tree must have the same degree multiset and leaves
        before = build_adjacency(pa)
        relabeled, label_map = relabel_bfs(to_edge_list(pa))
        after = build_adjacency(relabeled)
        assert sorted(before.degree) == sorted(after.degree)
        assert len(leaf_set(before)) == len(leaf_set(after))
        assert sorted(label_map) == list(range(1, pa.n + 1))

    @given(tree_arrays(min_n=2, max_n=20))
    def test_deterministic(self, pa):
        el = to_edge_list(pa)
        assert relabel_bfs(el) == relabel_bfs(el)


def _reference_relabel(n, edges):
    """relabel_bfs by its definition: BFS from the smallest vertex of
    maximum degree, neighbours in ascending label order.  A graph the BFS
    cannot span raises with the position of the first edge whose ends the
    edges before it already connect."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    root = max(range(1, n + 1), key=lambda v: (len(nbrs[v]), -v))
    new = {root: 1}
    parent = [0]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(nbrs[u]):
            if v not in new:
                new[v] = len(new) + 1
                parent.append(new[u])
                queue.append(v)
    if len(new) == n:
        return ParentArray(n, tuple(parent)), tuple(new[v] for v in range(1, n + 1))
    for pos, (u, v) in enumerate(edges):
        reached, todo = {u}, [u]
        while todo:
            w = todo.pop()
            for a, b in edges[:pos]:
                for x, y in ((a, b), (b, a)):
                    if x == w and y not in reached:
                        reached.add(y)
                        todo.append(y)
        if v in reached:
            raise ValidationError("cycle", pos)
    raise AssertionError("n - 1 edges that span no tree close a cycle")


def _outcome(relabel, n, edges):
    try:
        return relabel(n, edges)
    except ValidationError as exc:
        return exc.position


@pytest.mark.parametrize("n", range(1, 8))
def test_relabel_bfs_against_reference_exhaustive(n):
    """Every simple graph with n - 1 edges on n <= 7 vertices, its edges in
    list order and reversed: relabel_bfs gives the reference's result, or
    fails at the reference's edge."""
    cases = 0
    for chosen in combinations(combinations(range(1, n + 1), 2), n - 1):
        for edges in (chosen, chosen[::-1]):
            expected = _outcome(_reference_relabel, n, edges)
            got = _outcome(lambda n, e: relabel_bfs(EdgeList(n, e)), n, edges)
            assert got == expected, edges
            cases += 1
    assert cases == 2 * comb(n * (n - 1) // 2, n - 1)


def test_relabel_bfs_names_the_triangle_beside_an_edge():
    # 3 edges close the triangle 1-2-3, so vertices 4 and 5 stay unreached
    edges = ((1, 2), (2, 3), (3, 1), (4, 5))
    with pytest.raises(ValidationError) as info:
        relabel_bfs(EdgeList(5, edges))
    assert info.value.position == 2 == _outcome(_reference_relabel, 5, edges)


class TestValidate:
    def test_tree_accepts_single_root(self):
        assert validate(path_array(3), "tree") == (1,)

    def test_tree_rejects_forest(self):
        with pytest.raises(ValidationError):
            validate(ParentArray(3, (0, 0, 1)), "tree")

    def test_second_root_is_named_with_its_entry(self):
        with pytest.raises(ValidationError, match="vertex 3 is a second root") as info:
            validate(ParentArray(5, (0, 1, 0, 3, 0)), "tree")
        assert info.value.position == 2

    def test_empty_forest_is_not_a_tree(self):
        with pytest.raises(ValidationError, match="found 0") as info:
            validate(ParentArray(0, ()), "tree")
        assert info.value.position is None

    @given(forest_arrays(max_n=12))
    def test_roots_are_the_zero_entries(self, pa):
        roots = tuple(i + 1 for i, p in enumerate(pa.parent) if p == 0)
        assert pa.roots() == roots == validate(pa, "forest")
        if len(roots) == 1:
            assert validate(pa, "tree") == roots
        else:
            with pytest.raises(ValidationError):
                validate(pa, "tree")

    def test_forest_accepts_many_roots(self):
        assert validate(ParentArray(3, (0, 0, 0)), "forest") == (1, 2, 3)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            validate(path_array(2), "graph")


class TestLeafSet:
    def test_path(self):
        assert leaf_set(adjacency(0, 1, 2, 3, 4)) == (1, 5)

    def test_star(self):
        assert leaf_set(adjacency(0, 1, 1, 1)) == (2, 3, 4)

    def test_single_edge_both_ends(self):
        # a degree-1 root is an end-vertex like any other
        assert leaf_set(adjacency(0, 1)) == (1, 2)

    def test_k1_is_its_own_leaf(self):
        assert leaf_set(adjacency(0)) == (1,)

    def test_rejects_forest(self):
        with pytest.raises(ValidationError):
            leaf_set(adjacency(0, 0))


class TestClosedNeighborhood:
    def test_path_endpoints(self):
        assert closed_neighborhood(adjacency(0, 1, 2, 3, 4), (1, 5)) == (1, 2, 4, 5)

    def test_star_leaf(self):
        assert closed_neighborhood(adjacency(0, 1, 1, 1), (2,)) == (1, 2)

    def test_empty(self):
        assert closed_neighborhood(adjacency(0, 1, 2), ()) == ()

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            closed_neighborhood(adjacency(0, 1), (3,))


def _adjacency_matrix(pa):
    m = [[False] * (pa.n + 1) for _ in range(pa.n + 1)]
    for i, p in enumerate(pa.parent):
        if p != 0:
            m[i + 1][p] = m[p][i + 1] = True
    return m


@pytest.mark.slow
def test_leaf_and_neighborhood_against_matrix_oracle_exhaustive():
    """Degree-1 detection and N[L] agree with a raw adjacency-matrix scan
    on every tree with up to 9 vertices."""
    for n in range(2, 10):
        for pa in enumerate_parent_arrays(n, "trees"):
            t = build_adjacency(pa)
            m = _adjacency_matrix(pa)
            leaves = leaf_set(t)
            assert leaves == tuple(
                v for v in range(1, n + 1) if sum(m[v]) == 1
            )
            leaf_flags = set(leaves)
            expected = tuple(
                v
                for v in range(1, n + 1)
                if v in leaf_flags
                or any(m[v][u] for u in leaf_flags)
            )
            assert closed_neighborhood(t, leaves) == expected


def test_build_adjacency_degrees():
    t = adjacency(0, 1, 1, 2, 2)
    assert t.degree == (2, 3, 1, 1, 1)
    assert t.children == ((2, 3), (4, 5), (), (), ())
