"""Command-line surface: every subcommand, exit codes, pinned output shapes."""

import contextlib
import csv
import gc
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from steinerdom import (
    CapExceededError,
    ParentArray,
    ValidationError,
    format_parent_file,
    linearity_gate,
    relabel_bfs,
    run_bench,
)
from steinerdom import cli, verify
from steinerdom.bench import BenchRecord
from steinerdom.cli import main

from conftest import MALFORMED_EDG, NOT_A_TREE_EDG, reference_prufer_edges, shuffled_edg

SRC = Path(__file__).resolve().parent.parent / "src"

P5_PATH_PAR = "5\n0 1 2 3 4\n"
STAR4_PAR = "4\n0 1 1 1\n"
FOREST_PAR = "6\n0 1 2 0 4 5\n"
P5_EDG = "5\n1 2\n2 3\n3 4\n4 5\n"


def run_cli(argv):
    """Invoke main in process; argparse usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def p5_par(tmp_path):
    path = tmp_path / "p5.par"
    path.write_text(P5_PATH_PAR)
    return path


class TestSolve:
    def test_json_line_is_pinned(self, p5_par, capsys):
        assert run_cli(["solve", str(p5_par), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (
            '{"n": 5, "leaves": [1, 5], "h_vertices": [3], "gamma_h": 1, '
            '"steiner_dominating_set": [1, 3, 5], "size": 3, "formula_value": 3}\n'
        )

    def test_text_report(self, p5_par, capsys):
        assert run_cli(["solve", str(p5_par)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "n: 5",
            "leaves: 1 5",
            "core vertices: 3",
            "core domination number: 1",
            "steiner dominating set: 1 3 5",
            "size: 3",
            "formula value: 3",
        ]

    def test_star_has_empty_core(self, tmp_path, capsys):
        path = tmp_path / "star.par"
        path.write_text(STAR4_PAR)
        assert run_cli(["solve", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["h_vertices"] == []
        assert data["gamma_h"] == 0
        assert data["steiner_dominating_set"] == [2, 3, 4]
        assert data["size"] == 3

    def test_edge_list_input_is_canonicalized(self, tmp_path, capsys):
        path = tmp_path / "p5.edg"
        path.write_text(P5_EDG)
        assert run_cli(["solve", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # BFS relabel roots at the first max-degree vertex, here vertex 2
        assert data["leaves"] == [2, 5]
        assert data["steiner_dominating_set"] == [2, 3, 5]
        assert data["size"] == 3
        assert data["formula_value"] == 3

    def test_formats_agree_on_the_invariants(self, tmp_path, p5_par, capsys):
        edg = tmp_path / "p5.edg"
        edg.write_text(P5_EDG)
        run_cli(["solve", str(p5_par), "--json"])
        from_par = json.loads(capsys.readouterr().out)
        run_cli(["solve", str(edg), "--json"])
        from_edg = json.loads(capsys.readouterr().out)
        for key in ("n", "size", "formula_value", "gamma_h"):
            assert from_par[key] == from_edg[key]

    def test_format_override_beats_suffix(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text(P5_EDG)
        assert run_cli(["solve", str(path), "--format", "edg", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 3

    def test_a_path_without_a_name_is_named_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["solve", "."]) == 1
        assert capsys.readouterr().err == (
            "steinerdom solve: error: cannot infer format of '.'; pass --format par|edg\n"
        )

    def test_unknown_suffix_needs_explicit_format(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text(P5_EDG)
        assert run_cli(["solve", str(path)]) == 1
        assert "cannot infer" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.par"
        path.write_text("3\n0 1 x\n")
        assert run_cli(["solve", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, line, named",
        [
            # a second root is named on the data line, blank lines counted
            ("forest.par", "4\n0 0 1 2\n", 2, "vertex 2 is a second root"),
            ("forest.par", "\n4\n\n0 1 0 0\n", 4, "vertex 3 is a second root"),
            # the edge closing the cycle 1-2-3 is named; 4 (and 5) stay unreached
            ("cycle.edg", "4\n1 2\n2 3\n3 1\n", 4, "edge (3, 1) closes a cycle"),
            ("cycle.edg", "5\n4 5\n\n2 1\n3 2\n1 3\n", 6, "edge (1, 3) closes a cycle"),
        ],
    )
    def test_non_tree_names_its_line(self, tmp_path, capsys, name, text, line, named):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"steinerdom solve: error: line {line}: ")
        assert named in err

    @pytest.mark.parametrize("text", MALFORMED_EDG + NOT_A_TREE_EDG)
    def test_edg_errors_match_the_checking_path(self, text, tmp_path, capsys, monkeypatch):
        """An .edg that holds no tree exits 1 with the very line that
        parse_edge_list and relabel_bfs alone give."""
        path = tmp_path / "in.edg"
        path.write_bytes(text.encode())
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("steinerdom solve: error: line ") and err.count("\n") == 1
        monkeypatch.setattr(cli, "_read_edge_tree", lambda text: None)
        assert run_cli(["solve", str(path)]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("n", [1, 2, 3, 1500])
    def test_edg_trees_match_the_checking_path(self, n, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tree.edg"
        parents = cli.gen("prufer", n, n)
        path.write_text(shuffled_edg(parents, random.Random(n)))
        assert run_cli(["solve", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(cli, "_read_edge_tree", lambda text: None)
        assert run_cli(["solve", str(path), "--json"]) == 0
        assert capsys.readouterr().out == out

    def test_extra_par_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "extra.par"
        path.write_text("2\n0 1\n5\n")
        assert run_cli(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            "steinerdom solve: error: line 3: unexpected extra line\n"
        )

    def test_many_roots_give_a_short_error(self, tmp_path, capsys):
        path = tmp_path / "forest.par"
        path.write_text(f"100000\n{'0 ' * 100000}\n")
        assert run_cli(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            "steinerdom solve: error: line 2: vertex 2 is a second root; tree mode "
            "requires exactly one root, found 100000: [1, 2, 3, 4, 5, ...]\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["solve", str(tmp_path / "absent.par")]) == 1
        assert "error" in capsys.readouterr().err

    def test_parent_entry_of_2_32_names_its_line(self, tmp_path, capsys):
        # too large for the parent array: the int() lexer reads it, and the
        # ParentArray check words it
        path = tmp_path / "big.par"
        path.write_text("3\n0 1 4294967296\n")
        for command in ("solve", "gamma-forest"):
            assert run_cli([command, str(path)]) == 1
            assert capsys.readouterr().err == (
                f"steinerdom {command}: error: line 2: parent of vertex 3 is "
                "4294967296 (must be in 0..2)\n"
            )

    def test_non_ascii_byte_is_a_line_numbered_error(self, tmp_path, capsys):
        path = tmp_path / "bad.par"
        path.write_bytes(b"3\n0 1 \xff\n")
        for command in ("solve", "gamma-forest"):
            assert run_cli([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "line 2" in err


def _write_and_close(fd, data):
    with open(fd, "wb") as fh:
        fh.write(data)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedInput:
    """A pipe's bytes give the stdout, stderr and exit code that the same
    bytes give from a file: the input is read once, so no error is looked
    up in a second read that finds the pipe empty."""

    def _assert_same_as_file(self, argv, data, tmp_path, capsys):
        path = tmp_path / "in"
        path.write_bytes(data)
        from_file = run_cli([argv[0], str(path), *argv[1:]]), capsys.readouterr()
        read_end, write_end = os.pipe()
        # a thread writes, so that no input need fit in the pipe's buffer
        writer = threading.Thread(target=_write_and_close, args=(write_end, data))
        writer.start()
        try:
            from_pipe = run_cli([argv[0], f"/dev/fd/{read_end}", *argv[1:]]), capsys.readouterr()
        finally:
            os.close(read_end)
            writer.join()
        assert from_pipe == from_file

    @pytest.mark.parametrize("text", MALFORMED_EDG + NOT_A_TREE_EDG + [
        pytest.param(shuffled_edg(cli.gen("prufer", 300, 3), random.Random(3)),
                     id="shuffled-prufer-300"),
    ])
    def test_edg(self, text, tmp_path, capsys):
        self._assert_same_as_file(["solve", "--format", "edg"], text.encode(), tmp_path, capsys)

    @pytest.mark.parametrize("data", [
        pytest.param(b"3\n0 1 0\n", id="second-root"),
        pytest.param(b"3\n0 1 x\n", id="malformed"),
        pytest.param(b"3\n0 1 \xff\n", id="non-ascii"),
        pytest.param(b"3\n0 1 1\n\n\xff\n", id="non-ascii-after-the-data"),
        pytest.param((Path(__file__).resolve().parent.parent / "fixtures"
                      / "theorem1-audit-8.par").read_bytes(), id="fixture"),
    ])
    def test_par(self, data, tmp_path, capsys):
        self._assert_same_as_file(["solve", "--format", "par", "--json"], data, tmp_path, capsys)

    def test_gamma_forest(self, tmp_path, capsys):
        self._assert_same_as_file(["gamma-forest"], FOREST_PAR.encode(), tmp_path, capsys)

    @pytest.mark.parametrize("data, line", [(b"3\n0 1 \xff\n", 2),
                                            (b"3\n0 1 1\n\n\xff\n", 4)])
    def test_non_ascii_byte_names_its_line(self, data, line, capsys):
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=_write_and_close, args=(write_end, data))
        writer.start()
        try:
            code = run_cli(["solve", f"/dev/fd/{read_end}", "--format", "par"])
        finally:
            os.close(read_end)
            writer.join()
        assert code == 1
        assert capsys.readouterr().err == (
            f"steinerdom solve: error: line {line}: byte 0xff is not ASCII\n"
        )


class TestGammaForest:
    def test_json_multi_root(self, tmp_path, capsys):
        path = tmp_path / "forest.par"
        path.write_text(FOREST_PAR)
        assert run_cli(["gamma-forest", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "n": 6,
            "dominating_set": [2, 5],
            "size": 2,
        }

    def test_text(self, tmp_path, capsys):
        path = tmp_path / "forest.par"
        path.write_text(FOREST_PAR)
        assert run_cli(["gamma-forest", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n: 6",
            "dominating set: 2 5",
            "size: 2",
        ]

    def test_single_tree_is_a_forest_too(self, p5_par, capsys):
        assert run_cli(["gamma-forest", str(p5_par), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 2


def _old_solve_output(n, res, as_json):
    """solve's output as json.dumps and ' '.join(map(str, ...)) wrote it."""
    if as_json:
        return json.dumps({
            "n": n,
            "leaves": res.leaves,
            "h_vertices": res.core.to_tree,
            "gamma_h": len(res.core_dominating_set),
            "steiner_dominating_set": res.steiner_dominating_set,
            "size": res.size,
            "formula_value": res.size,
        }) + "\n"
    return "".join(line + "\n" for line in (
        f"n: {n}",
        f"leaves: {' '.join(map(str, res.leaves))}",
        f"core vertices: {' '.join(map(str, res.core.to_tree))}",
        f"core domination number: {len(res.core_dominating_set)}",
        f"steiner dominating set: {' '.join(map(str, res.steiner_dominating_set))}",
        f"size: {res.size}",
        f"formula value: {res.size}",
    ))


def _assert_same_text(out, expected):
    """out == expected, naming the first difference: pytest's own diff of
    two outputs of a few hundred kB runs for minutes."""
    if out != expected:
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"differ at offset {at}: "
                    f"{out[at:at + 40]!r} != {expected[at:at + 40]!r}")


class TestWriterMatchesReference:
    """solve and gamma-forest write the bytes that json.dumps and
    ' '.join(map(str, ...)) wrote, block by block."""

    @pytest.mark.parametrize(
        "name",
        ["k1.par", "k2.edg", "star.par", "fixture.par", "prufer2000.par",
         "star-seams.par", "path-seams.par", "caterpillar-seams.par",
         "path-block-multiple.par", "path-last-block-empty.par",
         "path-crossings.par", "star-crossings.par"],
    )
    def test_solve(self, name, tmp_path, capsys):
        block = cli._BLOCK
        path = tmp_path / name
        if name == "fixture.par":
            text = (Path(__file__).resolve().parent.parent / "fixtures"
                    / "theorem1-audit-8.par").read_text()
        elif name == "prufer2000.par":
            rng = random.Random(5)
            seq = [rng.randint(1, 2000) for _ in range(1998)]
            text = format_parent_file(relabel_bfs(reference_prufer_edges(2000, seq))[0])
        elif name.startswith("star-"):
            n = 2 * block + 5 if name == "star-seams.par" else 100_002
            text = format_parent_file(ParentArray(n, (0,) + (1,) * (n - 1)))
        elif name.startswith("path-"):
            n = {"path-seams.par": 3 * block, "path-block-multiple.par": 3 * block - 1,
                 "path-last-block-empty.par": 2 * block + 1,
                 "path-crossings.par": 100_003}[name]
            text = format_parent_file(ParentArray(n, tuple(range(n))))
        elif name == "caterpillar-seams.par":
            text = format_parent_file(_caterpillar(2 * block + 3))
        else:
            text = {"k1.par": "1\n0\n", "k2.edg": "2\n1 2\n", "star.par": STAR4_PAR}[name]
        path.write_text(text)
        n, res = cli._solve_file(str(path), "auto")
        if name.startswith(("star", "caterpillar")):
            assert res.core.to_tree == ()
        if name.endswith("-seams.par"):
            # the star's leaves and set, or the path's core vertices, cross
            # at least two seams between the writer's blocks
            assert max(len(res.leaves), len(res.core.to_tree)) > 2 * block
        if name in ("path-seams.par", "caterpillar-seams.par"):
            # and whole label blocks hold no leaf: the path's between its
            # two ends, the caterpillar's before the first label after its
            # spine
            assert not set(res.leaves) & set(range(block, 2 * block))
        if name == "path-block-multiple.par":
            # the flags end exactly at a block's end
            assert len(res.in_set) % block == 0
        if name == "path-last-block-empty.par":
            # the core's last block, labels 2000 and 2001, is empty
            assert res.core.to_tree[-1] < 2 * block <= n
        if name.endswith("-crossings.par"):
            # the path's core vertices, or the star's leaves, cross the
            # labels where the block number gains a digit
            members = set(res.core.to_tree if name.startswith("path") else res.leaves)
            assert {999, 1000, 1001, 9999, 10000, 99999, 100000, 100001} <= members
        for as_json in (True, False):
            assert run_cli(["solve", str(path)] + ["--json"] * as_json) == 0
            _assert_same_text(
                capsys.readouterr().out, _old_solve_output(n, res, as_json)
            )

    @pytest.mark.parametrize(
        "members, length",
        [
            ((), 1), ((), 3000), ((1,), 2), ((999,), 1000), ((1000,), 1001),
            ((999, 1000, 1001), 1002), ((1000, 1999), 3000), ((2999,), 3000),
            ((1, 999, 1000, 1001, 9999, 10000, 99999, 100000, 100001), 100_002),
            (tuple(range(9990, 10011)) + tuple(range(99_990, 100_011)), 100_011),
        ],
        ids=["empty-k1", "empty-3-blocks", "1", "999", "1000", "999-1001",
             "first-and-last-blocks-empty", "block-multiple", "digit-crossings",
             "runs-across-10^4-and-10^5"],
    )
    def test_members_match_the_references(self, members, length):
        flags = bytearray(length)
        for v in members:
            flags[v] = 1
        suffixes = cli._suffixes()
        for sep, reference in ((" ", " ".join(map(str, members))),
                               (", ", json.dumps(list(members))[1:-1])):
            pieces = []
            cli._write_members(pieces.append, bytes(flags), sep, suffixes)
            assert "".join(pieces) == reference
            # no empty write, so an empty block writes nothing at all
            assert all(pieces)

    def test_gamma_forest(self, tmp_path, capsys):
        path = tmp_path / "forest.par"
        path.write_text("9\n0 1 0 3 3 0 6 7 0\n")
        parents = cli.parse_parent_file(path.read_text())
        dom = cli.forest_domination(parents)
        assert len(parents.roots()) == 4
        self._check_gamma_forest(path, parents, dom, capsys)

    def test_gamma_forest_across_chunk_seams(self, tmp_path, capsys):
        path = tmp_path / "forest.par"
        # a random recursive forest: the set is over a third of the vertices
        rng = random.Random(16)
        n = 100_000
        path.write_text(format_parent_file(
            ParentArray(n, tuple(rng.randint(0, i) for i in range(n)))
        ))
        parents = cli.parse_parent_file(path.read_text())
        dom = cli.forest_domination(parents)
        assert len(dom) > 2 * cli._BLOCK
        self._check_gamma_forest(path, parents, dom, capsys)

    @pytest.mark.parametrize("shape", ["cherries", "path-block-multiple"])
    def test_gamma_forest_at_block_ends(self, shape, tmp_path, capsys):
        block = cli._BLOCK
        if shape == "cherries":
            # roots 1..k, each with one middle child and that child's leaf:
            # the set is the middles, k + 1..2k, so with k = block - 1 the
            # first and the last blocks of labels hold no member
            k = block - 1
            parents = ParentArray(3 * k, (0,) * k + tuple(range(1, 2 * k + 1)))
        else:
            # a path rooted at 1 whose flags end exactly at a block's end
            parents = ParentArray(3 * block - 1, tuple(range(3 * block - 1)))
        path = tmp_path / f"{shape}.par"
        path.write_text(format_parent_file(parents))
        dom = cli.forest_domination(parents)
        if shape == "cherries":
            assert dom == tuple(range(block, 2 * block - 1))
        else:
            assert (parents.n + 1) % block == 0
        self._check_gamma_forest(path, parents, dom, capsys)

    @staticmethod
    def _check_gamma_forest(path, parents, dom, capsys):
        assert run_cli(["gamma-forest", str(path), "--json"]) == 0
        _assert_same_text(capsys.readouterr().out, json.dumps(
            {"n": parents.n, "dominating_set": dom, "size": len(dom)}
        ) + "\n")
        assert run_cli(["gamma-forest", str(path)]) == 0
        _assert_same_text(capsys.readouterr().out, (
            f"n: {parents.n}\ndominating set: {' '.join(map(str, dom))}\n"
            f"size: {len(dom)}\n"
        ))

    @pytest.mark.parametrize(
        "parents",
        [
            ParentArray(1, (0,)),
            ParentArray(2, (0, 1)),
            ParentArray(50_000, tuple(random.Random(7).randint(0, i) for i in range(50_000))),
            ParentArray(4, [0, 1, 1, 3]),
        ],
        ids=["n=1", "n=2", "n=5e4", "list-parent"],
    )
    def test_format_parent_file(self, parents):
        assert format_parent_file(parents) == (
            f"{parents.n}\n{' '.join(str(p) for p in parents.parent)}\n"
        )


def _caterpillar(spine):
    """A spine 1..spine with two leaves on every spine vertex, labelled
    after the spine: no core, and no leaf among the first spine labels."""
    return ParentArray(3 * spine, (*range(spine), *(v for v in range(1, spine + 1)
                                                    for _ in range(2))))


class TestSolveMemory:
    """solve --json's tracemalloc peak per vertex at n = 10^5.  Measured
    12.1 B/v on the path, 12.3 on the Prufer tree, 11.5 on the star and
    11.7 on the caterpillar (Python 3.11), with the file read as bytes,
    its parents lexed into one array('I') and the forest pass marking its
    set into byte flags; each limit is that reading plus 15%.  With a
    tuple of parent ints, the file's text and the pass's tuple of chosen
    vertices they were 57.4-58.9, 50.6, 16.9 and 49.6; while
    steiner_domination built the three lists as tuples of ints they were
    84.3-85.8, 74.9, 64.3 and 73.5.

    The .edg files hold the path, the Prufer tree and the star with
    shuffled labels and lines.  The blank line after their count sends
    them to the int() lexer; the canonical rows hold the same text without
    that blank line, so the json scanner reads them.  Read as bytes, with
    the int() lexer's lines kept as bytes and relabel_bfs filling the
    parent array directly, both kinds measure 180.0-180.2, 180.7 and
    188.2 B/v.  The star's limits are that reading plus 15%: it measured
    224.1 while the BFS kept a new label int per vertex, and 188.2 since it
    keeps a byte per vertex.  The other limits are still those of the
    text's readings plus 15%: read as text, the int() lexer's rows
    measured 195.9, 195.9 and 228.1 (216.2 before the text was kept
    through the BFS), and the canonical ones 180.0, 180.6-180.7 and 228.1;
    through an EdgeList and its edge tuples they were 283.0, 283.6 and
    291.0."""

    @pytest.mark.parametrize(
        "shape, limit",
        [("path", 14), ("prufer", 15), ("star", 14), ("caterpillar", 14),
         ("path.edg", 217), ("prufer.edg", 217), ("star.edg", 217),
         ("path.canonical.edg", 207), ("prufer.canonical.edg", 208),
         ("star.canonical.edg", 217)],
    )
    def test_peak_per_vertex(self, shape, limit, tmp_path):
        n = 10**5
        shape, _, suffix = shape.partition(".")
        if shape == "path":
            parents = ParentArray(n, tuple(range(n)))
        elif shape == "prufer":
            parents = cli.gen("prufer", n, 1)
        elif shape == "star":
            parents = ParentArray(n, (0,) + (1,) * (n - 1))
        else:
            parents = _caterpillar(n // 3)
            n = parents.n
        path = tmp_path / f"{shape}.{suffix or 'par'}"
        if suffix:
            text = shuffled_edg(parents, random.Random(n))
            if suffix.startswith("canonical"):
                text = text.replace("\n\n", "\n", 1)  # no blank line
            path.write_text(text)
        else:
            path.write_text(format_parent_file(parents))
        del parents
        # a file, not a capture buffer, so that the output is not held
        with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                assert main(["solve", str(path), "--json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / n <= limit, f"{peak / n:.1f} B/vertex"


class TestGen:
    def test_stdout_bytes_are_pinned(self, capsys):
        assert run_cli(["gen", "--family", "path", "--n", "5"]) == 0
        assert capsys.readouterr().out == "5\n0 1 2 3 4\n"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "tree.par"
        assert run_cli(["gen", "--family", "star", "--n", "4", "--out", str(out)]) == 0
        assert out.read_text() == "4\n0 1 1 1\n"
        assert capsys.readouterr().out == ""

    def test_spider_shape(self, capsys):
        code = run_cli(["gen", "--family", "spider", "--legs", "3", "--leglen", "2"])
        assert code == 0
        assert capsys.readouterr().out == "7\n0 1 1 1 2 3 4\n"

    def test_caterpillar_pattern_flag(self, capsys):
        code = run_cli(
            ["gen", "--family", "caterpillar", "--spine", "4", "--pattern", "2,0"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("8\n")

    def test_deterministic_in_seed(self, capsys):
        run_cli(["gen", "--family", "prufer", "--n", "20", "--seed", "3"])
        first = capsys.readouterr().out
        run_cli(["gen", "--family", "prufer", "--n", "20", "--seed", "3"])
        assert capsys.readouterr().out == first
        run_cli(["gen", "--family", "prufer", "--n", "20", "--seed", "4"])
        assert capsys.readouterr().out != first

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "spider", "--legs", "1", "--leglen", "2"],
            ["gen", "--family", "path"],
            ["gen", "--family", "caterpillar", "--spine", "4", "--pattern", "a,b"],
        ],
    )
    def test_invalid_requests(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert run_cli(["gen", "--family", "wheel", "--n", "5"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_prufer_bytes_equal_the_randint_reference(self, seed, capsys):
        # the sequence as one randint(1, n) call per entry draws it
        n = 50_000
        rng = random.Random(seed)
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        expected = format_parent_file(relabel_bfs(reference_prufer_edges(n, seq))[0])
        assert run_cli(["gen", "--family", "prufer", "--n", str(n), "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == expected


class TestVerify:
    def test_random_run_writes_report_and_fixture_certificate(self, tmp_path, capsys):
        report_path = tmp_path / "out" / "report.json"
        code = run_cli(
            [
                "verify",
                "--mode",
                "random",
                "--max-n",
                "8",
                "--count",
                "5",
                "--seed",
                "1",
                "--report",
                str(report_path),
            ]
        )
        assert code == 2  # the shipped fixture always yields one certificate
        out = capsys.readouterr().out
        assert "fixture theorem1-audit-8: certificate" in out
        assert report_path.is_file()
        cert_dir = report_path.parent / "certificates"
        assert (cert_dir / "theorem1-audit-8.par").is_file()
        assert (cert_dir / "theorem1-audit-8.json").is_file()
        data = json.loads(report_path.read_text())
        assert data["instances"] == 5
        assert data["exit_code"] == 2

    def test_explicit_cert_dir(self, tmp_path, capsys):
        cert_dir = tmp_path / "c"
        code = run_cli(
            [
                "verify",
                "--mode",
                "exhaustive",
                "--max-n",
                "4",
                "--cert-dir",
                str(cert_dir),
            ]
        )
        assert code == 2
        assert (cert_dir / "theorem1-audit-8.par").is_file()
        assert "instances: 9" in capsys.readouterr().out

    def test_default_cert_dir_is_under_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["verify", "--mode", "exhaustive", "--max-n", "2"]) == 2
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == ["certificates", "certificates/theorem1-audit-8.json",
                           "certificates/theorem1-audit-8.par"]
        assert "discrepancies: 1 (certificates in certificates)\n" in capsys.readouterr().out

    def test_bad_max_n(self, tmp_path, capsys):
        code = run_cli(
            [
                "verify",
                "--mode",
                "exhaustive",
                "--max-n",
                "1",
                "--cert-dir",
                str(tmp_path / "c"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_internal_error_goes_to_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            verify, "audit_instance",
            lambda parents: verify.InstanceAudit(
                2, 2, True, True, None, f"oracle disagrees on n={parents.n}"
            ),
        )
        code = run_cli(["verify", "--mode", "exhaustive", "--max-n", "2",
                        "--cert-dir", str(tmp_path / "c")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "internal error: oracle disagrees on n=2",
            "internal error: oracle disagrees on n=8",
        ]
        assert "validity failures: 0" in captured.out

    def test_bad_mode_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(["verify", "--mode", "sweep"]) == 1
        capsys.readouterr()

    def test_cap_exceeded_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        def over_cap(**kwargs):
            raise CapExceededError("n=30 exceeds Steiner-dominating cap 24")

        monkeypatch.setattr("steinerdom.cli.run_verify", over_cap)
        code = run_cli(["verify", "--cert-dir", str(tmp_path / "c")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "steinerdom verify: error: n=30 exceeds Steiner-dominating cap 24"
        ]


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--sizes", "200", "400", "--reps", "3", "--out", str(out)]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "algorithm", "ns_total_median", "ns_per_vertex"]
        assert len(rows) == 5  # header plus two sizes times two algorithms
        assert [r[0] for r in rows[1:]] == ["200", "200", "400", "400"]
        assert {r[1] for r in rows[1:]} == {"forest_dom", "steiner_dom"}
        out = capsys.readouterr().out
        assert "csv written" in out
        # the gate's verdict lines: time and memory for both algorithms
        verdicts = [line for line in out.splitlines() if "200 -> 400" in line]
        assert len(verdicts) == 4
        assert all(line.endswith(("ok", "BREACH")) for line in verdicts)

    def test_gate_flags_each_breach(self):
        def rec(n, algorithm, ns_per_vertex, peak_bytes):
            ns_total = int(ns_per_vertex * n)
            return BenchRecord(n, algorithm, ns_total, ns_per_vertex, peak_bytes)

        # out of order, so that the lines pin the pairing by pass and by size
        records = [
            rec(1000, "steiner_dom", 3.5, 1300),  # both flat
            rec(100, "forest_dom", 3.0, 1200),  # both at their limits
            rec(10, "steiner_dom", 1.0, 100),
            rec(1000, "forest_dom", 9.3, 13200),  # time over, memory under
            rec(10, "forest_dom", 1.0, 100),
            rec(100, "steiner_dom", 3.5, 1300),  # both over
        ]
        lines, ok = linearity_gate(records)
        assert not ok
        assert lines == (
            "time   forest_dom   10 -> 100:  3.00x  ok",
            "time   forest_dom   100 -> 1000:  3.10x  BREACH",
            "time   steiner_dom  10 -> 100:  3.50x  BREACH",
            "time   steiner_dom  100 -> 1000:  1.00x  ok",
            "memory forest_dom   10 -> 100: 12.00x  ok",
            "memory forest_dom   100 -> 1000: 11.00x  ok",
            "memory steiner_dom  10 -> 100: 13.00x  BREACH",
            "memory steiner_dom  100 -> 1000:  1.00x  ok",
        )
        assert linearity_gate(records[1:3] + records[4:5])[1]
        with pytest.raises(KeyError):
            linearity_gate([rec(10, "other_dom", 1.0, 100)])

    def test_too_few_reps(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--sizes", "200", "--reps", "1", "--out", str(out)])
        assert code == 1
        assert "repetitions" in capsys.readouterr().err

    def test_descending_sizes(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--sizes", "400", "200", "--reps", "3", "--out", str(out)]
        )
        assert code == 1
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize(("sizes", "message"), [
        ((), "need at least one size"),
        ((1, 10), "sizes must be >= 2"),
    ], ids=["no-sizes", "size-1"])
    def test_bad_sizes_are_named(self, sizes, message):
        with pytest.raises(ValidationError) as info:
            run_bench(sizes=sizes)
        assert str(info.value) == message

    def test_seed_is_a_usage_error(self, capsys):
        # every bench run uses bench.SEED
        assert run_cli(["bench", "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli(["prove"]) == 1
        capsys.readouterr()


def _command_argv(command, tmp_path):
    """A small valid call of each command, with its inputs in tmp_path."""
    (tmp_path / "p5.par").write_text(P5_PATH_PAR)
    (tmp_path / "p5.edg").write_text(P5_EDG)
    return {
        "solve": ["solve", str(tmp_path / "p5.edg"), "--json"],
        "gamma-forest": ["gamma-forest", str(tmp_path / "p5.par")],
        "gen": ["gen", "--family", "prufer", "--n", "30"],
        "verify": ["verify", "--mode", "exhaustive", "--max-n", "3",
                   "--report", str(tmp_path / "r.json")],
        "bench": ["bench", "--sizes", "100", "200", "--reps", "3",
                  "--out", str(tmp_path / "b.csv")],
    }[command]


@pytest.fixture
def collector():
    """Restores the collector's state after a test that changes it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollector:
    """solve, gamma-forest and gen run with the cyclic collector paused;
    verify and bench leave it alone; main always restores it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("command", list(cli._COMMANDS) + ["failing solve"])
    def test_state_is_restored(self, command, enabled, tmp_path, capsys, collector):
        argv = (["solve", str(tmp_path / "missing.par")] if command == "failing solve"
                else _command_argv(command, tmp_path))
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert run_cli(argv) in (0, 1, 2)
        assert gc.isenabled() == enabled
        capsys.readouterr()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_paused_only_while_an_acyclic_command_runs(
        self, command, tmp_path, monkeypatch, collector
    ):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert run_cli(_command_argv(command, tmp_path)) == 0
        assert seen == [command not in ("solve", "gamma-forest", "gen")]

    def test_no_collection_during_gen_or_edge_list_solve(self, tmp_path, capsys, collector):
        collections = []

        def probe(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        n = 20_000
        edg = tmp_path / "t.edg"
        edg.write_text(f"{n}\n" + "".join(f"{v} {v // 2}\n" for v in range(2, n + 1)))
        gen_argv = ["gen", "--family", "prufer", "--n", str(n), "--seed", "3"]
        gc.enable()
        gc.callbacks.append(probe)
        try:
            # the control: the same generation, outside main, is collected
            cli.format_parent_file(cli.gen("prufer", n=n, seed=3))
            assert collections
            collections.clear()
            assert run_cli(gen_argv) == 0
            assert run_cli(["solve", str(edg), "--json"]) == 0
        finally:
            gc.callbacks.remove(probe)
        assert collections == []
        capsys.readouterr()


def _child(argv, prefix=(), **kwargs):
    """``python [prefix] -m steinerdom argv`` in a fresh process.  Its
    stdout is buffered unless env sets PYTHONUNBUFFERED, so the process's
    own flush is what writes the output."""
    env = kwargs.pop("env", {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
    path = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *prefix, "-m", "steinerdom", *argv],
        env=dict(env, PYTHONPATH=path), stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


class TestProcessExit:
    """``python -m steinerdom`` leaves through os._exit, after flushing."""

    def test_output_and_exit_codes_match_in_process_main(self, tmp_path, capsys):
        cert_dir = str(tmp_path / "certs")
        for argv, code in (
            (["gen", "--family", "prufer", "--n", "3000", "--seed", "2"], 0),
            # argparse prints the help and exits before main's own flush
            (["gen", "--help"], 0),
            (["gen", "--family", "path"], 1),
            (["verify", "--mode", "exhaustive", "--max-n", "8", "--cert-dir", cert_dir], 2),
        ):
            proc = _child(argv, cwd=tmp_path)
            assert run_cli(argv) == proc.returncode == code, argv
            captured = capsys.readouterr()
            assert proc.stdout.decode() == captured.out, argv
            assert proc.stderr.decode() == captured.err, argv

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_a_one_line_error(self, unbuffered):
        # buffered, the write fails at main's flush; unbuffered, at print
        kwargs = {"env": dict(os.environ, PYTHONUNBUFFERED="1")} if unbuffered else {}
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "theorem1-audit-8.par"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            proc = _child(["solve", str(fixture), "--json"], stdout=write_end, **kwargs)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("steinerdom solve: error: ")

    def test_cli_module_is_no_entry_point(self):
        # python -m steinerdom.cli once ran the command; now it must fail
        # loudly and name the entry point, not exit 0 with no output
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "theorem1-audit-8.par"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "steinerdom.cli", "solve", str(fixture)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and "python -m steinerdom" in lines[0], lines

    def test_profiler_still_writes_its_output(self, tmp_path):
        stats = tmp_path / "gen.prof"
        proc = _child(["gen", "--family", "path", "--n", "10"],
                      prefix=("-m", "cProfile", "-o", str(stats)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"10\n0 1 2 3 4 5 6 7 8 9\n"
        assert stats.stat().st_size > 0
