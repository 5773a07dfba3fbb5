"""Rooted tree/forest representations and neighborhood primitives.

Vertices are labelled 1..n throughout.  The canonical in-memory form is a
parent array: ``parent[i] < i`` for every vertex i, with 0 as the "no
parent" sentinel marking roots.  That ordering makes every array acyclic by
construction and lets the labelling algorithms run in a single pass.
Unrooted trees arrive as edge lists and are canonicalized by a BFS
relabeling that restores the ordering.
"""

from __future__ import annotations

import os
import re
import sys
from itertools import compress, count, repeat
from operator import not_


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
        return hash(self._values())

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
    """

    __slots__ = ("n", "parent")

    def __init__(self, n: int, parent: tuple[int, ...]) -> None:
        if n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {n}")
        if len(parent) != n:
            raise ValidationError(f"parent array has {len(parent)} entries, expected {n}")
        for idx, p in enumerate(parent):
            # vertex label is idx + 1; parent must be in {0, .., idx}
            if not 0 <= p <= idx:
                raise ValidationError(
                    f"parent of vertex {idx + 1} is {p} (must be in 0..{idx})", idx
                )
        super().__init__(n, parent)

    def roots(self) -> tuple[int, ...]:
        return _roots(self.parent)


def _roots(parent: tuple[int, ...]) -> tuple[int, ...]:
    """The labels whose parent entry is 0."""
    return tuple(compress(count(1), map(not_, parent)))


class EdgeList(Record):
    """An unrooted graph on labels 1..n given as unordered edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
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


def read_ascii_file(path: str | os.PathLike) -> str:
    """A .par or .edg file as text; a non-ASCII byte is a line-numbered
    ParseError, as every other character outside the grammar is."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"line {lineno}: byte 0x{data[exc.start]:02x} is not ASCII"
        ) from None


# After CRLF -> LF, a file may hold only ASCII digits, spaces, tabs and LF.
_OUTSIDE_GRAMMAR = re.compile(r"[^0-9 \t\n]")


def _lex(text: str) -> tuple[int, list[str], list[int], tuple[int, ...]]:
    """The file-format rules that .par and .edg share.

    Checks the grammar in one scan (tokens are [0-9]+ separated by spaces
    or tabs, lines end in LF or CRLF, blank lines are skipped) and reads
    the vertex count n >= 1 from the first non-blank line.  Returns n, the
    lines, the line number of every non-blank line (the count's line
    first), and every token as an int, in file order.  The text is split
    into tokens once; counting the tokens of each line is left to the
    parser that needs it, so the long data line of a .par is not split a
    second time.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad is not None:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise ParseError(
            f"line {lineno}: character {bad.group()!r} is not a digit, space or tab"
        )
    try:
        values = tuple(map(int, text.split()))
    except ValueError:
        # the grammar leaves int() only its cap on digits to object to
        limit = sys.get_int_max_str_digits()
        lineno = next(
            lineno
            for lineno, line in enumerate(text.split("\n"), start=1)
            if any(len(tok) > limit for tok in line.split())
        )
        raise ParseError(
            f"line {lineno}: an integer has more digits than Python's limit of {limit}"
        ) from None
    # Split into lines only now: a copy of a long .par data line alive
    # during the token split above would add to the peak memory.
    lines = text.split("\n")
    # within the grammar a line is blank iff it strips to ""
    linenos = list(compress(count(1), map(str.strip, lines)))
    if not linenos:
        raise ParseError("line 1: empty input, expected a vertex count")
    first = len(lines[linenos[0] - 1].split())
    if first != 1:
        raise ParseError(
            f"line {linenos[0]}: expected a single vertex count, found {first} tokens"
        )
    n = values[0]
    if n < 1:
        raise ParseError(f"line {linenos[0]}: vertex count must be >= 1, got {n}")
    return n, lines, linenos, values


def parse_parent_file(text: str) -> ParentArray:
    """Parse the .par format: line 1 is n, line 2 is n parent entries.

    Raises ParseError with a line diagnostic for text outside the grammar,
    line and entry count mismatches, and any parent entry that
    ParentArray rejects.
    """
    n, _, linenos, values = _lex(text)
    if len(linenos) == 1:
        raise ParseError(f"line {linenos[0]}: missing parent entries for {n} vertices")
    if len(linenos) > 2:
        raise ParseError(f"line {linenos[2]}: unexpected extra line")
    # every token after the count's is on the one data line
    if len(values) - 1 != n:
        raise ParseError(
            f"line {linenos[1]}: expected {n} parent entries, found {len(values) - 1}"
        )
    try:
        return ParentArray(n, values[1:])
    except ValidationError as exc:
        raise ParseError(f"line {linenos[1]}: {exc}") from None


def parse_edge_list(text: str) -> EdgeList:
    """Parse the .edg format: line 1 is n, then n-1 lines "u v".

    Raises ParseError with a line diagnostic for text outside the grammar,
    line and label count mismatches, and any edge that EdgeList rejects.
    Connectivity is not checked here; relabel_bfs rejects disconnected
    input.
    """
    n, lines, linenos, values = _lex(text)
    if len(linenos) != n:
        raise ParseError(
            f"line {linenos[0]}: expected {n - 1} edge lines for {n} vertices, "
            f"found {len(linenos) - 1}"
        )
    # token counts of the non-blank lines, aligned with linenos; the lines
    # are as large as the text, so they go before the edges are built
    counts = list(filter(None, map(len, map(str.split, lines))))
    del lines
    if counts.count(2) != n - 1:
        k = next(k for k in range(1, n) if counts[k] != 2)
        raise ParseError(
            f"line {linenos[k]}: expected an edge 'u v', found {counts[k]} labels"
        )
    try:
        return EdgeList(n, tuple(zip(values[1::2], values[2::2])))
    except ValidationError as exc:
        # edge i sits on the (i + 1)-th line after the vertex count
        raise ParseError(f"line {linenos[exc.position + 1]}: {exc}") from None


def position_line(text: str, position: int) -> int:
    """The line of a parsed .par or .edg text that holds parent entry or
    edge ``position`` (counted from 0).

    Names the line of an error found after parsing, such as validate's
    second root or relabel_bfs's cycle.  It lexes the text again, so it
    belongs on error paths.  A .par file's entries share its one data line;
    edge i of a .edg file is the (i + 1)-th line after the vertex count
    (with n = 2 both rules give the second non-blank line).
    """
    linenos = _lex(text)[2]
    return linenos[1] if len(linenos) == 2 else linenos[position + 1]


def format_parent_file(parents: ParentArray) -> str:
    """Canonical .par text for a ParentArray (inverse of parse_parent_file)."""
    if parents.n < 1:
        raise ValidationError("cannot format an empty forest as a .par file")
    return f"{parents.n}\n{' '.join(str(p) for p in parents.parent)}\n"


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
    if len(edges.edges) != n - 1:
        raise ValidationError(
            f"tree on {n} vertices needs {n - 1} edges, got {len(edges.edges)}"
        )
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges.edges:
        adj[u].append(v)
        adj[v].append(u)
    any(map(list.sort, adj))  # sort returns None, so any() sorts every row
    if root is None:
        deg = list(map(len, adj))
        # index() finds the smallest label; adj[0] belongs to no vertex
        root = deg.index(max(deg), 1)
    elif not 1 <= root <= n:
        raise ValidationError(f"root {root} out of range 1..{n}")

    new_of = [0] * (n + 1)
    parent = [0] * n
    new_of[root] = 1
    assigned = 1
    order = [root]  # the BFS queue: the loop walks it while it grows
    for old in order:
        p = new_of[old]
        for nbr in adj[old]:
            if not new_of[nbr]:
                assigned += 1
                new_of[nbr] = assigned
                parent[assigned - 1] = p
                order.append(nbr)
    if assigned != n:
        pos = _first_cycle_edge(n, edges.edges)
        u, v = edges.edges[pos]
        raise ValidationError(
            f"edge list is disconnected: reached {assigned} of {n} vertices; "
            f"edge ({u}, {v}) closes a cycle",
            pos,
        )
    # a vertex's parent was labelled before it, so every entry is in range
    return ParentArray._trusted(n, tuple(parent)), tuple(new_of[1:])


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
    # parent < vertex makes vertex 1 a root whenever n >= 1
    if parents.parent.count(0) == 1:
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
