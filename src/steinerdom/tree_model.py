"""Rooted tree/forest representations and neighborhood primitives.

Vertices are labelled 1..n throughout.  The canonical in-memory form is a
parent array: ``parent[i] < i`` for every vertex i, with 0 as the "no
parent" sentinel marking roots.  That ordering makes every array acyclic by
construction and lets the labelling algorithms run in a single pass.
Unrooted trees arrive as edge lists and are canonicalized by a BFS
relabeling that restores the ordering.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Sequence
from itertools import chain, compress, count, repeat
from operator import not_


# The families of `steinerdom gen`: here, not in corpus, so that the
# command-line parser can list them without loading the generators.
FAMILIES = (
    "path",
    "star",
    "spider",
    "caterpillar",
    "binary",
    "prufer",
    "random_parent",
)


class TreeModelError(ValueError):
    """Base class for ingestion and validation failures."""


class ParseError(TreeModelError):
    """Malformed .par / .edg input; message carries line diagnostics."""


class ValidationError(TreeModelError):
    """Structurally invalid tree, forest, or vertex set.

    ``position`` is the index of the offending parent entry or edge when
    the error is about one, so that a parser can name the line it came
    from; it is None otherwise.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class Record:
    """An immutable value whose fields are its class's ``__slots__``.

    The constructor takes the fields in ``__slots__`` order, by position or
    by name; only a record that checks its values defines its own
    ``__init__``, which runs the checks and then calls this one.  Records
    of one class compare and hash by their field values, repr as
    ``Class(field=value, ...)``, and copy and pickle through their
    constructor.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values: object, **fields: object) -> None:
        names, record = self.__slots__, type(self).__qualname__
        if len(values) > len(names):
            raise TypeError(f"{record} takes {len(names)} fields, got {len(values)} values")
        # object.__setattr__ returns None, so any() binds every value
        any(map(object.__setattr__, repeat(self), names, values))
        for name, value in fields.items():
            if name not in names[len(values):]:
                raise TypeError(
                    f"{record} got field {name!r} twice" if name in names
                    else f"{record} has no field {name!r}"
                )
            object.__setattr__(self, name, value)
        if len(values) + len(fields) < len(names):
            missing = [name for name in names[len(values):] if name not in fields]
            raise TypeError(f"{record} is missing {', '.join(map(repr, missing))}")

    @classmethod
    def _trusted(cls, *values: object) -> Record:
        """A record of the given field values, in ``__slots__`` order,
        built without the constructor's checks: for values that are valid
        by construction, such as a decoded Prüfer sequence's edges or
        relabel_bfs's parent array."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        # an array field, such as a parent array, is unhashable: its bytes
        # stand in for it
        return hash(tuple(v.tobytes() if type(v) is array else v for v in self._values()))

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ParentArray(Record):
    """A rooted forest as a parent array.

    ``parent[i - 1]`` is the parent label of vertex i, with 0 for roots.
    Every entry satisfies parent < vertex, so children always carry larger
    labels than their parents and vertex 1 is always a root.  n = 0 (the
    empty forest) is allowed so that an empty induced subforest can be
    passed around without special cases; the file formats themselves
    require n >= 1.

    ``parent`` is an ``array('I')``, 4 bytes per vertex: the constructor
    takes any sequence of ints, checks each entry and then copies them
    into one of its own, so no caller can change it afterwards.
    """

    __slots__ = ("n", "parent")

    def __init__(self, n: int, parent: Sequence[int]) -> None:
        if n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {n}")
        if len(parent) != n:
            raise ValidationError(f"parent array has {len(parent)} entries, expected {n}")
        _check_entries(parent)
        super().__init__(n, array("I", parent))

    def roots(self) -> tuple[int, ...]:
        return _roots(self.parent)


def _check_entries(parent: Sequence[int]) -> None:
    """ValidationError, with its position, for the first entry that is not
    a valid parent, checked before any entry goes into an array, whose
    conversion would raise OverflowError instead."""
    for idx, p in enumerate(parent):
        # vertex label is idx + 1; parent must be in {0, .., idx}, which
        # also keeps it in the array's range
        if not 0 <= p <= idx:
            raise ValidationError(
                f"parent of vertex {idx + 1} is {p} (must be in 0..{idx})", idx
            )


def _roots(parent: Sequence[int]) -> tuple[int, ...]:
    """The labels whose parent entry is 0."""
    return tuple(compress(count(1), map(not_, parent)))


# The bytes of one array('I') entry holding 0 or 1, in this machine's order.
_ZERO = re.compile(re.escape(array("I", (0,)).tobytes()))
_ONE = re.compile(re.escape(array("I", (1,)).tobytes()))


def _find_entry(parent: array, pattern: re.Pattern[bytes], start: int) -> int:
    """``parent.index(value, start)``, or -1 when no entry from ``start`` on
    holds the value, for a pattern of one entry's bytes (_ZERO or _ONE).

    The search runs over the array's bytes, so no int is made per entry.
    A match whose offset is not a multiple of the item size straddles two
    entries (little-endian, 255 then 256 hold four zero bytes from offset
    1); the search goes on from the byte after it.
    """
    size = parent.itemsize
    data = memoryview(parent).cast("B")
    pos = start * size
    while (match := pattern.search(data, pos)) is not None:
        pos = match.start()
        if not pos % size:
            return pos // size
        pos += 1
    return -1


class EdgeList(Record):
    """An unrooted graph on labels 1..n given as unordered edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        if n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {n}")
        seen = set()
        for pos, (u, v) in enumerate(edges):
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(
                    f"edge ({u}, {v}) has a label outside 1..{n}", pos
                )
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}", pos)
            # one int per unordered pair: cheaper to hash and store than a tuple
            key = u * (n + 1) + v if u < v else v * (n + 1) + u
            if key in seen:
                raise ValidationError(
                    f"duplicate edge ({min(u, v)}, {max(u, v)})", pos
                )
            seen.add(key)
        super().__init__(n, edges)


class AdjacencyTree(Record):
    """Children lists and unrooted degrees derived from a ParentArray.

    degree counts the undirected incidences: child count plus one for the
    parent edge on non-roots.
    """

    __slots__ = ("n", "parent", "children", "degree")


def _ascii_text(source: str | bytes) -> str:
    """A file's text, given as text or as its bytes: bytes decode as ASCII,
    and a non-ASCII byte is a line-numbered ParseError, as every other
    character outside the grammar is."""
    if isinstance(source, str):
        return source
    try:
        return source.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = source.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"line {lineno}: byte 0x{source[exc.start]:02x} is not ASCII"
        ) from None


# After CRLF -> LF, a file may hold only ASCII digits, spaces, tabs and LF.
_GRAMMAR = b"0123456789 \t\n"
_OUTSIDE_GRAMMAR = re.compile(r"[^0-9 \t\n]")
# Canonical text, as format_parent_file writes it, separates its tokens by
# single spaces and LFs only; mapped to commas, they make JSON arrays.
_DIGITS = b"0123456789"
_CANONICAL = _DIGITS + b" \n"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")
# Bytes of text whose tokens exist as bytes objects at one time; a chunk
# runs on to the next space, so no token is cut.  Chunks of 2^14 to 2^18
# bytes lex a 2.5e5-vertex .par equally fast; the whole text at once holds
# a bytes object per token and nearly doubles the lexer's peak memory.  A
# 2^14-byte chunk's tokens take about 0.1 MB and a 2^16-byte one 0.4 MB, a
# difference of 15 B/vertex in the peak of a 2.5e4-vertex parse.  Both
# lexers cut their text with _chunks, so the json scanner's list of one
# chunk's ints stays as small.
_TOKEN_CHUNK = 1 << 14


def _chunks(data: bytes, stop: int):
    """data[:stop] in slices of about _TOKEN_CHUNK bytes.  A slice runs on
    to the next space, which belongs to no slice, so no token is cut and a
    doubled separator still shows."""
    start = 0
    while start < stop:
        # a file without spaces, such as a tab-separated one, is one slice
        end = data.find(b" ", start + _TOKEN_CHUNK, stop)
        if end < 0:
            end = stop
        yield data[start:end]
        start = end + 1


def _lex(
    source: str | bytes, parents: bool = False
) -> tuple[int, Sequence[int], Sequence[int], bytes | list[bytes]]:
    """The file-format rules that .par and .edg share.

    ``source`` is the file's text, or its bytes, which are decoded only to
    word an error.  Returns the vertex count n >= 1, the line number of
    every non-blank line (the count's line first), every token after the
    count as an int, in file order, and the text's layout, from which
    _lex_edg reads each line's token count: a canonical text's ASCII
    bytes, any other text's lines as bytes.  _lex_canonical reads
    canonical text, as gen and format_parent_file write it, and gives
    ``parents`` callers its tokens as one ``array('I')``; _lex_lines reads
    any other text and raises every error.
    """
    return _lex_canonical(source, parents) or _lex_lines(source)


def _lex_canonical(
    source: str | bytes, parents: bool = False
) -> tuple[int, range, Sequence[int], bytes] | None:
    """_lex's result for text in canonical form, or None for other text.

    Canonical text holds only digits, spaces and LF; its count line is a
    bare digit run, and every separator up to the last token is one space
    or one LF, so it has no blank line before that token.  With its spaces
    and LFs mapped to commas, each chunk of about _TOKEN_CHUNK bytes is a
    JSON array of ints, which the json module's C scanner reads faster
    than one int() per token.  The scanner itself rejects a doubled,
    leading or trailing comma, a token with a leading zero and one longer
    than Python's digit limit; any text it rejects, or whose count is
    below 1, goes to _lex_lines.  No line is split: the lines up to the
    last token are its LFs plus one.

    With ``parents`` the tokens after the count go into one ``array('I')``,
    extended by each chunk's list, so no int outlives its chunk; a token
    at or above 2^32 sends the text to _lex_lines, whose tuple the
    ParentArray check words.  Otherwise they are a tuple of ints.
    """
    data = source if isinstance(source, bytes) else source.encode("ascii", "replace")
    if data.translate(None, _CANONICAL):
        return None  # a tab, a CR or a character outside the grammar
    # the end of the last token, found without an rstrip copy of the text
    last = len(data)
    while last and data[last - 1] in b" \n":
        last -= 1
    head = data.find(b"\n", 0, last)
    if not data[:last if head < 0 else head].isdigit():
        return None
    # loaded by the first canonical text read, never by gen or bench
    import json

    # map, not a generator expression, so that no slice outlives its array
    arrays = map(lambda chunk: "[" + chunk.translate(_TO_COMMAS).decode() + "]",
                 _chunks(data, last))
    lists = map(json.loads, arrays)
    try:
        if parents:
            rest = array("I")
            any(map(rest.fromlist, lists))  # fromlist returns None
            n = rest.pop(0)
        else:
            tokens = chain.from_iterable(lists)
            n = next(tokens)
            rest = tuple(tokens)
    except (ValueError, OverflowError):
        return None
    if n < 1:
        return None
    return n, range(1, data.count(b"\n", 0, last) + 2), rest, data


def _lex_lines(source: str | bytes) -> tuple[int, list[int], tuple[int, ...], list[bytes]]:
    """_lex for any text, and the source of every error it raises.

    Checks the grammar in one C pass over the text's ASCII bytes (tokens
    are [0-9]+ separated by spaces or tabs, lines end in LF or CRLF, blank
    lines are skipped) and reads the vertex count n >= 1 from the first
    non-blank line.  The bytes are split into tokens once; counting the
    tokens of each line is left to the parser that needs it, so the long
    data line of a .par is not split a second time.  Bytes are decoded
    only to word an error about a character outside the grammar, which
    makes a non-ASCII byte that error.
    """
    # a non-ASCII character encodes as "?", which is outside the grammar,
    # as a non-ASCII byte is
    data = source if isinstance(source, bytes) else source.encode("ascii", "replace")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if data.translate(None, _GRAMMAR):
        text = _ascii_text(source).replace("\r\n", "\n")
        bad = _OUTSIDE_GRAMMAR.search(text)
        lineno = text.count("\n", 0, bad.start()) + 1
        raise ParseError(
            f"line {lineno}: character {bad.group()!r} is not a digit, space or tab"
        )
    # chain flattens each chunk's split in C and the tuple grows in place,
    # so no list of all the tokens exists beside it and no chunk outlives
    # its split; with the count split off the front, a .par file's parent
    # entries need no second copy
    tokens = map(int, chain.from_iterable(map(bytes.split, _chunks(data, len(data)))))
    try:
        n = next(tokens, None)
        rest = tuple(tokens)
    except ValueError:
        # the grammar leaves int() only its cap on digits to object to
        limit = sys.get_int_max_str_digits()
        lineno = next(
            lineno
            for lineno, line in enumerate(data.split(b"\n"), start=1)
            if any(len(tok) > limit for tok in line.split())
        )
        raise ParseError(
            f"line {lineno}: an integer has more digits than Python's limit of {limit}"
        ) from None
    del tokens
    # Split into lines only now: a copy of a long .par data line alive
    # during the token split above would add to the peak memory.
    lines = data.split(b"\n")
    del data
    # within the grammar a line is blank iff it strips to b""
    linenos = list(compress(count(1), map(bytes.strip, lines)))
    if not linenos:
        raise ParseError("line 1: empty input, expected a vertex count")
    first = len(lines[linenos[0] - 1].split())
    if first != 1:
        raise ParseError(
            f"line {linenos[0]}: expected a single vertex count, found {first} tokens"
        )
    if n < 1:
        raise ParseError(f"line {linenos[0]}: vertex count must be >= 1, got {n}")
    return n, linenos, rest, lines


def parse_parent_file(text: str | bytes) -> ParentArray:
    """Parse the .par format: line 1 is n, line 2 is n parent entries.

    ``text`` may be the file's bytes, decoded only for the int() lexer and
    its messages.  Raises ParseError with a line diagnostic for text
    outside the grammar or a non-ASCII byte, line and entry count
    mismatches, and any parent entry that ParentArray rejects.
    """
    n, linenos, parent, layout = _lex(text, parents=True)
    del layout  # as large as the text, and only .edg reads it
    if len(linenos) == 1:
        raise ParseError(f"line {linenos[0]}: missing parent entries for {n} vertices")
    if len(linenos) > 2:
        raise ParseError(f"line {linenos[2]}: unexpected extra line")
    # every token after the count's is on the one data line
    if len(parent) != n:
        raise ParseError(
            f"line {linenos[1]}: expected {n} parent entries, found {len(parent)}"
        )
    try:
        _check_entries(parent)
    except ValidationError as exc:
        raise ParseError(f"line {linenos[1]}: {exc}") from None
    # the canonical lexer's array is this call's own, so it is kept as it is
    if type(parent) is not array:
        parent = array("I", parent)
    return ParentArray._trusted(n, parent)


def parse_edge_list(text: str | bytes) -> EdgeList:
    """Parse the .edg format: line 1 is n, then n-1 lines "u v".

    Raises ParseError with a line diagnostic for text outside the grammar,
    line and label count mismatches, and any edge that EdgeList rejects.
    Connectivity is not checked here; relabel_bfs rejects disconnected
    input.
    """
    n, linenos, values = _lex_edg(text)
    try:
        return EdgeList(n, tuple(zip(values[0::2], values[1::2])))
    except ValidationError as exc:
        # edge i sits on the (i + 1)-th line after the vertex count
        raise ParseError(f"line {linenos[exc.position + 1]}: {exc}") from None


def _lex_edg(text: str | bytes) -> tuple[int, Sequence[int], tuple[int, ...]]:
    """_lex for an .edg text whose lines hold n - 1 edges of two labels
    each after the vertex count: (n, linenos, values).  Raises the
    ParseError for the first line that breaks that structure.  The layout,
    as large as the text, is freed on return, before any edge or row is
    built."""
    n, linenos, values, layout = _lex(text)
    if len(linenos) != n:
        raise ParseError(
            f"line {linenos[0]}: expected {n - 1} edge lines for {n} vertices, "
            f"found {len(linenos) - 1}"
        )
    if isinstance(layout, bytes):
        # canonical text: the separators between its tokens are one LF
        # after the count, then one space and one LF per edge line
        seps = layout.translate(None, _DIGITS)[:len(values)]
        if seps == b"\n " * (n - 1):
            return n, linenos, values
        counts = [len(spaces) + 1 for spaces in seps.split(b"\n")]
    else:
        # token counts of the non-blank lines, aligned with linenos
        counts = list(filter(None, map(len, map(bytes.split, layout))))
        if counts.count(2) == n - 1:
            return n, linenos, values
    k = next(k for k in range(1, n) if counts[k] != 2)
    raise ParseError(
        f"line {linenos[k]}: expected an edge 'u v', found {counts[k]} labels"
    )


def _read_edge_tree(text: str | bytes) -> ParentArray | None:
    """``relabel_bfs(parse_edge_list(text))[0]`` for an .edg text that
    holds a tree, built with no EdgeList and no edge tuples: the tokens
    fill relabel_bfs's adjacency rows directly.

    _lex_edg raises the lexer's and the line structure's errors, as it
    does for parse_edge_list.  Returns None for a text with the .edg line
    structure but no tree, a label outside 1..n or a BFS that misses a
    vertex, so that the caller can run the checking path for its message.
    n - 1 edges whose BFS reaches all n vertices form a tree, so they hold
    no self-loop and no edge twice.
    """
    n, linenos, values = _lex_edg(text)
    del linenos  # an int per line, not needed past the line check
    # an out-of-range label would index past the rows, or into rows[0]
    if values and not (min(values) >= 1 and max(values) <= n):
        return None
    ends = iter(values)
    rows = _edge_rows(n, zip(ends, ends))
    del values, ends
    try:
        return _relabel_rows(n, rows)[0]
    except ValidationError:
        return None


def position_line(text: str | bytes, position: int) -> int:
    """The line of a parsed .par or .edg text that holds parent entry or
    edge ``position`` (counted from 0).

    Names the line of an error found after parsing, such as validate's
    second root or relabel_bfs's cycle.  It lexes the text again, so it
    belongs on error paths.  A .par file's entries share its one data line;
    edge i of a .edg file is the (i + 1)-th line after the vertex count
    (with n = 2 both rules give the second non-blank line).
    """
    linenos = _lex(text)[1]
    return linenos[1] if len(linenos) == 2 else linenos[position + 1]


def format_parent_file(parents: ParentArray) -> str:
    """Canonical .par text for a ParentArray (inverse of parse_parent_file)."""
    if parents.n < 1:
        raise ValidationError("cannot format an empty forest as a .par file")
    return f"{parents.n}\n{_join_ints(parents.parent, ' ')}\n"


def _join_ints(values, sep: str) -> str:
    """``sep.join(map(str, values))`` for ints, written by one ``%``
    into one buffer instead of through a str per value."""
    return (("%d" + sep) * len(values))[:-len(sep)] % tuple(values)


def relabel_bfs(
    edges: EdgeList, root: int | None = None
) -> tuple[ParentArray, tuple[int, ...]]:
    """Relabel a connected edge list into parent-array form via BFS.

    New labels follow BFS visit order from the root, so every parent gets a
    smaller label than its children.  ``root=None`` picks a vertex of
    maximum degree, ties broken by smallest original label; for n >= 3 that
    root is never a leaf.  Neighbors are visited in ascending original
    label order, making the relabeling deterministic.

    Returns the ParentArray and a label map with ``label_map[old - 1] ==
    new``.
    """
    n = edges.n
    if n < 1:
        raise ValidationError(f"a tree needs at least one vertex, got {n}")
    if len(edges.edges) != n - 1:
        raise ValidationError(
            f"tree on {n} vertices needs {n - 1} edges, got {len(edges.edges)}"
        )
    if root is not None and not 1 <= root <= n:
        raise ValidationError(f"root {root} out of range 1..{n}")
    try:
        return _relabel_rows(n, _edge_rows(n, edges.edges), root)
    except ValidationError as exc:
        pos = _first_cycle_edge(n, edges.edges)
        u, v = edges.edges[pos]
        raise ValidationError(f"{exc}; edge ({u}, {v}) closes a cycle", pos) from None


def _edge_rows(n: int, edges) -> list[list[int]]:
    """Adjacency rows of the edges (u, v) on labels 1..n: ``rows[v]`` holds
    v's neighbours in edge order, and ``rows[0]`` is empty."""
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _relabel_rows(
    n: int, rows: list[list[int]], root: int | None = None
) -> tuple[ParentArray, tuple[int, ...]]:
    """relabel_bfs's BFS over adjacency rows, ``rows[v]`` for v in 1..n and
    an empty ``rows[0]``.  It sorts the rows, frees each row once the BFS
    has walked it and empties ``rows`` before building its output; if the
    BFS reaches fewer than n vertices, the ValidationError says how many it
    reached."""
    any(map(list.sort, rows))  # sort returns None, so any() sorts every row
    if root is None:
        deg = list(map(len, rows))
        # index() finds the smallest label; rows[0] belongs to no vertex
        root = deg.index(max(deg), 1)
        del deg

    new_of = [0] * (n + 1)
    parent = array("I", [0]) * n  # the ParentArray's own array
    new_of[root] = 1
    assigned = 1
    order = [root]  # the BFS queue: the loop walks it while it grows
    for old in order:
        p = new_of[old]
        # a row is walked once and freed at the next step, so the rows
        # shrink as the BFS's lists grow
        row = rows[old]
        rows[old] = None
        for nbr in row:
            if not new_of[nbr]:
                assigned += 1
                new_of[nbr] = assigned
                parent[assigned - 1] = p
                order.append(nbr)
    del row
    rows.clear()
    del order
    if assigned != n:
        raise ValidationError(
            f"edge list is disconnected: reached {assigned} of {n} vertices"
        )
    # a vertex's parent was labelled before it, so every entry is in range
    tree = ParentArray._trusted(n, parent)
    del new_of[0]  # no vertex has label 0; the label map starts at vertex 1
    return tree, tuple(new_of)


def _first_cycle_edge(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """Position of the first edge, in list order, whose ends the edges
    before it already connect.

    n - 1 edges that leave a vertex unreached always contain a cycle, so
    relabel_bfs calls this only after its BFS has failed.  Union-find with
    path halving over labels 1..n.
    """
    comp = list(range(n + 1))
    for pos, (u, v) in enumerate(edges):
        while comp[u] != u:
            comp[u] = comp[comp[u]]
            u = comp[u]
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        if u == v:
            return pos
        comp[u] = v
    raise AssertionError("n - 1 acyclic edges on n vertices connect them all")


def validate(parents: ParentArray | AdjacencyTree) -> tuple[int, ...]:
    """Check that the forest is a single tree: exactly one root.  Returns
    the root labels, ``(1,)``.

    Reads only ``.parent``, so it checks an AdjacencyTree as well.  A
    second root is reported with the position of its parent entry, so
    that a caller holding the file can name its line.
    """
    # parent < vertex makes vertex 1 a root whenever n >= 1, so a tree is
    # an array with no 0 after its first entry
    if parents.n and _find_entry(parents.parent, _ZERO, 1) < 0:
        return (1,)
    roots = _roots(parents.parent)
    # a forest file may hold a root per vertex; the message names a few
    shown = ", ".join(map(str, roots[:5])) + (", ..." if len(roots) > 5 else "")
    found = f"tree mode requires exactly one root, found {len(roots)}: [{shown}]"
    if not roots:
        raise ValidationError(found)
    raise ValidationError(f"vertex {roots[1]} is a second root; {found}", roots[1] - 1)


def build_adjacency(parents: ParentArray) -> AdjacencyTree:
    """Derive children lists and unrooted degrees in O(n)."""
    n = parents.n
    kids: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parents.parent):
        if p != 0:
            kids[p - 1].append(i + 1)
    degree = tuple(
        len(kids[i]) + (1 if parents.parent[i] != 0 else 0) for i in range(n)
    )
    return AdjacencyTree(n, parents.parent, tuple(tuple(k) for k in kids), degree)


def leaf_set(t: AdjacencyTree) -> tuple[int, ...]:
    """End-vertices of a single tree: every vertex of unrooted degree 1.

    Degree-based on purpose, so a degree-1 root counts as a leaf just like
    any other end-vertex.  The single vertex of K1 is its own leaf by
    convention.
    """
    validate(t)
    if t.n == 1:
        return (1,)
    return tuple(v + 1 for v in range(t.n) if t.degree[v] == 1)


def _check_vertices(n: int, vertices: tuple[int, ...]) -> None:
    """Raise ValidationError for the first of ``vertices`` outside 1..n."""
    for v in vertices:
        if not 1 <= v <= n:
            raise ValidationError(f"vertex {v} out of range 1..{n}")


def closed_neighborhood(t: AdjacencyTree, s: tuple[int, ...]) -> tuple[int, ...]:
    """N[S]: the members of s together with every adjacent vertex."""
    _check_vertices(t.n, s)
    covered = set(s)
    for v in s:
        covered.update(t.children[v - 1])
        p = t.parent[v - 1]
        if p != 0:
            covered.add(p)
    return tuple(sorted(covered))


def to_edge_list(parents: ParentArray) -> EdgeList:
    """Forget the rooting: each parent link becomes an unordered edge."""
    edges = []
    for i, p in enumerate(parents.parent):
        if p != 0:
            v = i + 1
            edges.append((p, v) if p < v else (v, p))
    return EdgeList(parents.n, tuple(edges))
