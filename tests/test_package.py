"""The package surface: lazy exports, and the modules each command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import steinerdom

SRC = Path(__file__).resolve().parent.parent / "src"
DEFINING = ("tree_model", "corpus", "forest_domination", "steiner_domination",
            "bench", "oracles", "verify")
AUDIT_AND_BENCH = {"steinerdom.bench", "steinerdom.verify", "steinerdom.oracles",
                   "statistics", "tracemalloc"}


def _imports(argv, cwd):
    """Every module a fresh ``python -m steinerdom`` process imports, read
    from ``-X importtime``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "steinerdom", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_gen_and_solve_load_no_audit_or_bench_code(tmp_path):
    (tmp_path / "p5.edg").write_text("5\n1 2\n2 3\n3 4\n4 5\n")
    for argv in (
        ["gen", "--family", "prufer", "--n", "50", "--out", "t.par"],
        ["solve", "t.par", "--json"],
        ["solve", "p5.edg"],
    ):
        loaded = _imports(argv, tmp_path)
        assert "steinerdom.steiner_domination" in loaded, argv
        assert not loaded & AUDIT_AND_BENCH, argv
    # the probe sees the modules a command does load
    loaded = _imports(["verify", "--mode", "exhaustive", "--max-n", "2"], tmp_path)
    assert {"steinerdom.verify", "steinerdom.oracles"} <= loaded


def test_every_export_is_the_object_its_module_holds(monkeypatch):
    modules = [importlib.import_module(f"steinerdom.{m}") for m in DEFINING]
    for name in steinerdom.__all__:
        # drop a lazy name cached by an earlier lookup, so that it resolves anew
        if name in steinerdom._LAZY_MODULE:
            monkeypatch.delitem(vars(steinerdom), name, raising=False)
        exported = getattr(steinerdom, name)
        holders = [m for m in modules if name in vars(m)]
        assert holders, name
        for m in holders:
            assert vars(m)[name] is exported, (name, m.__name__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        steinerdom.no_such_name


def test_solver_functions_are_not_shadowed_by_their_modules():
    importlib.import_module("steinerdom.verify")  # imports both modules again
    assert isinstance(steinerdom.forest_domination, FunctionType)
    assert isinstance(steinerdom.steiner_domination, FunctionType)


def test_submodule_import_gives_the_module():
    from steinerdom import verify

    assert isinstance(verify, ModuleType)
    assert verify.__name__ == "steinerdom.verify"


def test_dir_lists_every_export(monkeypatch):
    for name in steinerdom._LAZY_MODULE:  # as in a process that used none yet
        monkeypatch.delitem(vars(steinerdom), name, raising=False)
    assert set(steinerdom.__all__) <= set(dir(steinerdom))
