"""Data model: parsing, validation, relabeling, neighborhood primitives."""

import copy
import pickle
import sys
from array import array
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
    is_dominating_set,
    leaf_set,
    parse_edge_list,
    parse_parent_file,
    relabel_bfs,
    to_edge_list,
    validate,
)
from steinerdom import tree_model

from conftest import (
    MALFORMED_EDG,
    NOT_A_TREE_EDG,
    adjacency,
    forest_arrays,
    path_array,
    shuffled_edg,
    star_array,
    tree_arrays,
)


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

    @pytest.mark.parametrize("parent, message, position", [
        ((0, -1), "parent of vertex 2 is -1 (must be in 0..1)", 1),
        ((0, 1, 2**32), "parent of vertex 3 is 4294967296 (must be in 0..2)", 2),
    ], ids=["negative", "2^32"])
    def test_entry_outside_the_array_range_is_a_validation_error(
        self, parent, message, position
    ):
        # checked before the entries go into the array, whose conversion
        # would raise OverflowError instead
        with pytest.raises(ValidationError) as info:
            ParentArray(len(parent), parent)
        assert (str(info.value), info.value.position) == (message, position)

    def test_parent_is_one_array_of_unsigned_ints(self):
        text = "4\n0 1 1 3\n"
        built = [ParentArray(4, (0, 1, 1, 3)), ParentArray(4, [0, 1, 1, 3]),
                 parse_parent_file(text), parse_parent_file(text.encode()),
                 parse_parent_file(text.replace(" ", "\t")),
                 relabel_bfs(to_edge_list(path_array(4)))[0]]
        for pa in built:
            assert type(pa.parent) is array and pa.parent.typecode == "I", pa
        # the constructor copies even an array('I'), so its caller cannot
        # change the record, or its hash, afterwards
        given = array("I", (0, 1, 1))
        pa = ParentArray(3, given)
        given[1] = 7
        assert pa.parent is not given and tuple(pa.parent) == (0, 1, 1)

    def test_tuple_built_and_parsed_agree(self):
        built = ParentArray(5, (0, 1, 1, 3, 3))
        text = "5\n0 1 1 3 3\n"
        for parsed in (parse_parent_file(text), parse_parent_file(text.encode()),
                       parse_parent_file(text.replace(" ", "\t"))):
            assert parsed == built and not parsed != built
            assert hash(parsed) == hash(built)
            for clone in (copy.copy(parsed), copy.deepcopy(parsed),
                          pickle.loads(pickle.dumps(parsed))):
                assert clone == built and hash(clone) == hash(built)
        assert len({built, parse_parent_file(text)}) == 1
        assert parse_parent_file("5\n0 1 1 3 2\n") != built


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
        assert tuple(parse_parent_file("5\n0 1 2 3 4\n").parent) == (0, 1, 2, 3, 4)

    def test_crlf(self):
        assert parse_parent_file("3\r\n0 1 1\r\n").n == 3

    def test_no_trailing_newline(self):
        assert parse_parent_file("2\n0 1").n == 2

    def test_round_trip(self):
        text = format_parent_file(ParentArray(4, (0, 1, 1, 3)))
        assert text == "4\n0 1 1 3\n"
        assert tuple(parse_parent_file(text).parent) == (0, 1, 1, 3)

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

    def test_extra_line_is_named(self):
        with pytest.raises(ParseError, match=r"^line 3: unexpected extra line$"):
            parse_parent_file("2\n0 1\n5\n")

    def test_empty_forest_cannot_be_formatted(self):
        with pytest.raises(
            ValidationError, match=r"^cannot format an empty forest as a \.par file$"
        ):
            format_parent_file(ParentArray(0, ()))

    @given(tree_arrays(min_n=1, max_n=30))
    def test_format_parse_inverse(self, pa):
        assert parse_parent_file(format_parent_file(pa)) == pa


class TestParseEdgeList:
    def test_p5(self):
        el = parse_edge_list("5\n1 2\n2 3\n3 4\n4 5\n")
        assert el.n == 5 and len(el.edges) == 4

    @pytest.mark.parametrize("text", MALFORMED_EDG)
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


def _result(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _read_edge_tree_agrees(text):
    """Assert that tree_model._read_edge_tree on text returns the tree that
    ``relabel_bfs(parse_edge_list(text))`` returns, or, where that raises,
    returns None or raises the same error (the lexer's and the line
    structure's errors).  Returns the checking path's result."""
    expected = _result(lambda: relabel_bfs(parse_edge_list(text))[0])
    got = _result(lambda: tree_model._read_edge_tree(text))
    if isinstance(expected, ParentArray):
        assert got == expected
    else:
        assert got is None or got == expected, (got, expected)
    return expected


class TestReadEdgeTree:
    """The direct read of an .edg tree against the checking path."""

    @pytest.mark.parametrize("text", MALFORMED_EDG + NOT_A_TREE_EDG)
    def test_hands_every_non_tree_back_or_raises_the_same(self, text):
        assert _read_edge_tree_agrees(text)[0] in (ParseError, ValidationError)

    @pytest.mark.parametrize("text", ["3\n1 2\n", "3\n1 2\n3\n", "3\n1 2 3\n4\n"])
    def test_raises_line_structure_errors_itself(self, text):
        with pytest.raises(ParseError) as exc:
            tree_model._read_edge_tree(text)
        assert _result(lambda: parse_edge_list(text)) == (ParseError, str(exc.value))

    @given(tree_arrays(min_n=1, max_n=40), st.randoms(use_true_random=False),
           st.sampled_from(["\n", "\r\n"]))
    def test_shuffled_trees_give_the_same_parent_array(self, pa, rng, newline):
        text = shuffled_edg(pa, rng, newline)
        assert tree_model._read_edge_tree(text) == relabel_bfs(parse_edge_list(text))[0]

    @given(text=st.text(_FUZZ_ALPHABET, max_size=40))
    def test_any_text_agrees(self, text):
        _read_edge_tree_agrees(text)


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


CHUNK = tree_model._TOKEN_CHUNK
N_PATH = CHUNK // 2
PATH_PARENT = (0,) + tuple(range(1, N_PATH))


def _path_par(pad: int) -> str:
    """A path's .par text, over twice the token chunk, with ``pad`` spaces
    after the root's entry: their width places the first chunk's end."""
    return f"{N_PATH}\n0" + " " * pad + " ".join(map(str, PATH_PARENT[1:])) + "\n"


def _par_with_a_token_across_the_chunk_end() -> str:
    for pad in range(1, 7):
        text = _path_par(pad)
        if text[CHUNK - 1:CHUNK + 1].isdigit():
            return text
    raise AssertionError("no width of the first separator cuts a token")


class TestLexChunks:
    """The tokens are split from the text in chunks that end after a
    space; no token may be cut or lost at a chunk's end."""

    def test_token_across_the_chunk_end(self):
        text = _par_with_a_token_across_the_chunk_end()
        assert len(text) > 2 * CHUNK
        assert tuple(parse_parent_file(text).parent) == PATH_PARENT

    def test_run_of_spaces_at_the_chunk_end(self):
        text = _path_par(CHUNK + 2 - len(f"{N_PATH}\n0"))
        assert text[CHUNK - 1:CHUNK + 2] == "   "
        assert tuple(parse_parent_file(text).parent) == PATH_PARENT

    def test_tab_only_separators(self):
        n = CHUNK // 2
        text = f"{n}\n" + "\t".join(map(str, range(n))) + "\n"
        assert len(text) > 2 * CHUNK
        assert tuple(parse_parent_file(text).parent) == tuple(range(n))
        assert parse_edge_list("3\n1\t2\n\t2\t3\t\n").edges == ((1, 2), (2, 3))

    def test_leading_zeros(self):
        assert tuple(parse_parent_file("008\n0 01 1 001 1 1 1 007\n").parent) == (
            0, 1, 1, 1, 1, 1, 1, 7,
        )

    def test_crlf_across_chunks(self):
        text = _par_with_a_token_across_the_chunk_end()
        assert tuple(parse_parent_file(text.replace("\n", "\r\n")).parent) == PATH_PARENT
        n = CHUNK // 4
        edg = f"{n}\r\n" + "".join(f"{v} {v - 1}\r\n" for v in range(2, n + 1))
        assert parse_edge_list(edg).edges == tuple((v, v - 1) for v in range(2, n + 1))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
    @given(tree=tree_arrays(min_n=1, max_n=40), seps=st.lists(
        st.sampled_from([" ", "  ", "\t", " \t", "\t "]), min_size=40, max_size=40))
    def test_any_chunk_size_reads_the_same_tokens(self, chunk, tree, seps):
        text = f"{tree.n}\n" + "".join(
            sep + str(p) for sep, p in zip(seps, tree.parent)) + " \n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_model, "_TOKEN_CHUNK", chunk)
            assert parse_parent_file(text) == tree

    def test_non_ascii_str_names_the_character(self):
        with pytest.raises(ParseError) as info:
            parse_parent_file("3\n0 1 \uff12\n")
        assert str(info.value) == (
            "line 2: character '\uff12' is not a digit, space or tab"
        )
        # the first character outside the grammar is named, ASCII or not
        with pytest.raises(ParseError) as info:
            parse_parent_file("2\n\n0 \xe9 x\n")
        assert str(info.value) == "line 3: character '\xe9' is not a digit, space or tab"

    def test_over_cap_integer_in_a_late_chunk_names_its_line(self):
        limit = sys.get_int_max_str_digits()
        n = CHUNK // 2
        lines = [f"{v} {v - 1}" for v in range(2, n + 1)]
        lines[-3] = f"{n} {'1' * (limit + 1)}"
        text = f"{n}\n" + "\n".join(lines) + "\n"
        assert text.index("1" * (limit + 1)) > 2 * CHUNK
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == (
            f"line {n - 2}: an integer has more digits than Python's limit of {limit}"
        )


LIMIT = sys.get_int_max_str_digits()
# the grammar's alphabet in pieces: digit runs with and without leading
# zeros, 2^32, which no array('I') holds, one over Python's digit limit,
# and single and doubled separators, tabs, CRLF and blank lines
_TOKENS = st.sampled_from(["0", "1", "2", "3", "9", "10", "12", "05", "007", "4294967296",
                           "1" * (LIMIT + 1)])
_SEPS = st.sampled_from([" ", "\n", "  ", "\t", " \t", "\r\n", "\n\n", " \n", "\n \n"])


@st.composite
def _lexer_texts(draw):
    """A count and tokens joined by separators: a third canonical, a third
    with single separators but any token, a leading zero or one over the
    digit limit among them, and a third with any separators at all."""
    kind = draw(st.sampled_from(["canonical", "any tokens", "any text"]))
    clean = st.sampled_from(["1", "2", "3", "10"])
    tokens = clean if kind == "canonical" else clean | _TOKENS
    seps = st.sampled_from([" ", "\n"])
    if kind == "any text":
        seps |= _SEPS
    count = draw(clean if kind == "canonical" else tokens | st.sampled_from(["0", "05"]))
    body = draw(st.lists(st.tuples(seps, tokens), max_size=8))
    if body and kind == "canonical":
        body[0] = ("\n", body[0][1])  # the count alone on its line
    lead, tail = "", draw(st.sampled_from(["", "\n", " \n", "\n\n"]))
    if kind == "any text":
        lead = draw(st.sampled_from(["", "\n", " ", "\t"]))
        tail = draw(st.sampled_from([tail, "\r\n", "\t"]))
    return lead + count + "".join(sep + tok for sep, tok in body) + tail


def _lexed(lex, text):
    n, linenos, tokens, _ = lex(text)
    return n, list(linenos), tokens


def _lexers_agree(text):
    """Assert that _lex gives the chunked int() lexer's (n, linenos,
    tokens) or error on text, and that each parser's result or error is
    the same with the canonical path on and off."""
    expected = _result(lambda: _lexed(tree_model._lex_lines, text))
    assert _result(lambda: _lexed(tree_model._lex, text)) == expected

    def par_lexed(source):
        # a .par's tokens: one array('I') where they all fit
        n, linenos, tokens = _lexed(lambda s: tree_model._lex(s, parents=True), source)
        return n, linenos, tuple(tokens)

    for source in (text, text.encode()):
        assert _result(lambda: par_lexed(source)) == expected
    parsers = (parse_parent_file, parse_edge_list, tree_model._read_edge_tree)
    fast = [_result(lambda: parse(text)) for parse in parsers]
    # solve and gamma-forest hand the parsers the file's bytes
    assert [_result(lambda: parse(text.encode())) for parse in parsers] == fast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_model, "_lex_canonical", lambda text, parents=False: None)
        assert [_result(lambda: parse(text)) for parse in parsers] == fast


class TestCanonicalLexer:
    """Canonical text goes through the json scanner, any other text
    through the chunked int() lexer; both give the same tokens, lines and
    errors."""

    @given(text=_lexer_texts(), chunk=st.sampled_from([1, 2, 5, CHUNK]))
    def test_agrees_with_the_int_lexer(self, text, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_model, "_TOKEN_CHUNK", chunk)
            _lexers_agree(text)

    @given(tree=tree_arrays(min_n=1, max_n=40), rng=st.randoms(use_true_random=False),
           chunk=st.sampled_from([1, 2, 5, CHUNK]))
    def test_written_files_are_canonical(self, tree, rng, chunk):
        par = format_parent_file(tree)
        edg = shuffled_edg(tree, rng).replace("\n\n", "\n", 1)  # no blank line
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_model, "_TOKEN_CHUNK", chunk)
            for text in (par, edg):
                assert tree_model._lex_canonical(text) is not None, text
                _lexers_agree(text)
        assert parse_parent_file(par) == tree
        assert tree_model._read_edge_tree(edg) == relabel_bfs(parse_edge_list(edg))[0]

    @pytest.mark.parametrize("text, canonical", [
        pytest.param("1\n", True, id="n=1-edg"),
        pytest.param("1\n0\n", True, id="n=1-par"),
        pytest.param("2\n1 2\n", True, id="n=2-edg"),
        pytest.param("2\n0 1", True, id="n=2-par-no-final-lf"),
        pytest.param("3\n1 2\n2 3 \n\n \n", True, id="trailing-blank-lines"),
        pytest.param("05\n0 1 2 3 4\n", False, id="count-05"),
        pytest.param("3\n1 \t2\n2 3\n", False, id="space-tab"),
        pytest.param("3\n1 2\n\n2 3\n", False, id="blank-line"),
        pytest.param("3\r\n1 2\r\n2 3\r\n", False, id="crlf"),
        pytest.param("0\n", False, id="count-0"),
        pytest.param("3 1\n2 3\n", False, id="two-tokens-on-the-count-line"),
    ])
    def test_named_texts(self, text, canonical):
        assert (tree_model._lex_canonical(text) is not None) == canonical
        _lexers_agree(text)

    def test_count_05_and_space_tab_parse(self):
        assert tuple(parse_parent_file("05\n0 1 2 3 4\n").parent) == (0, 1, 2, 3, 4)
        # with spaces and LFs as commas this scans as [3, 1, 2, 2, 3]: the
        # tab alone sends it to the int() lexer
        assert parse_edge_list("3\n1 \t2\n2 3\n").edges == ((1, 2), (2, 3))

    @pytest.mark.parametrize("text, message", [
        ("3\n1 2 3\n2\n", "line 2: expected an edge 'u v', found 3 labels"),
        ("4\n1 2\n2\n3 4 1\n", "line 3: expected an edge 'u v', found 1 labels"),
    ])
    def test_canonical_edg_line_structure_errors(self, text, message):
        assert tree_model._lex_canonical(text) is not None
        for parse in (parse_edge_list, tree_model._read_edge_tree):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == message
        _lexers_agree(text)

    def test_canonical_par_with_an_out_of_range_parent_names_line_2(self):
        text = "3\n0 1 7\n"
        assert tree_model._lex_canonical(text) is not None
        with pytest.raises(ParseError) as info:
            parse_parent_file(text)
        assert str(info.value) == "line 2: parent of vertex 3 is 7 (must be in 0..2)"

    def test_parent_entry_of_2_32_falls_back_and_names_line_2(self):
        text = "3\n0 1 4294967296\n"
        assert tree_model._lex_canonical(text) is not None
        # a .par's tokens go into an array('I'), which cannot hold 2^32
        assert tree_model._lex_canonical(text, parents=True) is None
        for source in (text, text.encode()):
            with pytest.raises(ParseError) as info:
                parse_parent_file(source)
            assert str(info.value) == (
                "line 2: parent of vertex 3 is 4294967296 (must be in 0..2)"
            )

    def test_over_cap_integer_falls_back_and_names_its_line(self):
        text = f"3\n1 2\n2 {'1' * (LIMIT + 1)}\n"
        assert tree_model._lex_canonical(text) is None
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == (
            f"line 3: an integer has more digits than Python's limit of {LIMIT}"
        )


class TestRelabelBfs:
    def test_p5_explicit_midpoint_root(self):
        pa, label_map = relabel_bfs(to_edge_list(path_array(5)), root=3)
        assert tuple(pa.parent) == (0, 1, 1, 2, 3)
        assert label_map[3 - 1] == 1  # the chosen root becomes vertex 1

    def test_p5_default_root_is_smallest_max_degree(self):
        # degrees on P5 are 1,2,2,2,1; ties break to the smallest label 2
        pa, label_map = relabel_bfs(to_edge_list(path_array(5)))
        assert label_map[2 - 1] == 1
        assert tuple(pa.parent) == (0, 1, 1, 3, 4)

    def test_star_roots_at_center(self):
        pa, label_map = relabel_bfs(to_edge_list(star_array(6)))
        assert label_map[0] == 1
        assert tuple(pa.parent) == (0, 1, 1, 1, 1, 1)

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

    @pytest.mark.parametrize(
        "edges, root, message",
        [
            (EdgeList(0, ()), None, "a tree needs at least one vertex, got 0"),
            (EdgeList(3, ((1, 2),)), None, "tree on 3 vertices needs 2 edges, got 1"),
            (to_edge_list(path_array(3)), 4, "root 4 out of range 1..3"),
        ],
    )
    def test_messages(self, edges, root, message):
        with pytest.raises(ValidationError) as info:
            relabel_bfs(edges, root)
        assert str(info.value) == message

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
    fails at the reference's edge.  Its unchecked ParentArray is one that
    the checked constructor accepts unchanged."""
    cases = 0
    for chosen in combinations(combinations(range(1, n + 1), 2), n - 1):
        for edges in (chosen, chosen[::-1]):
            expected = _outcome(_reference_relabel, n, edges)
            got = _outcome(lambda n, e: relabel_bfs(EdgeList(n, e)), n, edges)
            assert got == expected, edges
            if not isinstance(got, int):
                pa = got[0]
                assert ParentArray(pa.n, pa.parent) == pa == ParentArray._trusted(n, pa.parent)
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
        assert validate(path_array(3)) == (1,)

    def test_tree_rejects_forest(self):
        with pytest.raises(ValidationError):
            validate(ParentArray(3, (0, 0, 1)))

    def test_second_root_is_named_with_its_entry(self):
        with pytest.raises(ValidationError, match="vertex 3 is a second root") as info:
            validate(ParentArray(5, (0, 1, 0, 3, 0)))
        assert info.value.position == 2

    def test_empty_forest_is_not_a_tree(self):
        with pytest.raises(ValidationError, match="found 0") as info:
            validate(ParentArray(0, ()))
        assert info.value.position is None

    @given(forest_arrays(max_n=12))
    def test_roots_are_the_zero_entries(self, pa):
        roots = tuple(i + 1 for i, p in enumerate(pa.parent) if p == 0)
        assert pa.roots() == roots
        if len(roots) == 1:
            assert validate(pa) == roots
        else:
            with pytest.raises(ValidationError):
                validate(pa)

    def test_forest_accepts_many_roots(self):
        assert ParentArray(3, (0, 0, 0)).roots() == (1, 2, 3)


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
    on every tree with up to 9 vertices, and is_dominating_set agrees with
    it on every vertex subset of every tree with up to 6."""
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
            if n > 6:
                continue
            for mask in range(1 << n):
                s = tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
                dominated = all(
                    v in s or any(m[v][u] for u in s) for v in range(1, n + 1)
                )
                assert is_dominating_set(t, s) == dominated, (pa.parent, s)


def test_build_adjacency_degrees():
    t = adjacency(0, 1, 1, 2, 2)
    assert t.degree == (2, 3, 1, 1, 1)
    assert t.children == ((2, 3), (4, 5), (), (), ())
