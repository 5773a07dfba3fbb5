"""Tests of the CLI benchmark itself: tiny-n smoke runs and failing checks.

Run from the root of the repository with ``python -m pytest clibench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from calls import Ledger, Spawner, fresh_dir  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(par_n=3000, edg_n=2000, gen_n=2000, gen_seeds=2,
             verify_exhaustive_n=6, verify_random_n=10, verify_count=20)


@pytest.fixture
def work(tmp_path):
    fresh_dir(tmp_path / "work")
    return tmp_path / "work"


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_complete(name, trace):
    result = run.run_workload(name, seed=3, seconds=1.0, trace=trace, sizes=TINY)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 2
    wanted = [m for m, *_ in run.E2E] if not trace else [m for m, *_ in tracer.catalogue()]
    assert list(result["metrics"]) == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_solve_par_spans_account_for_cli_main():
    result = run.run_workload("solve-par", seed=3, seconds=1.0, trace=1, sizes=TINY)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    children = (m["tree_model.parse_parent_file.ns_per_v"]
                + m["steiner_domination.steiner_domination.self_ns_per_v"]
                + m["forest_domination.forest_domination.s"] * 1e9 / (4 * 3000))
    assert m["cli.self_ns_per_v"] + children == pytest.approx(m["cli.main.ns_per_v"], rel=0.02)
    assert m["tree_model.parse_parent_file.calls"] == 4
    assert m["steiner_domination.core_frac.star"] == 0 < m["steiner_domination.core_frac.path"]


def _first_call(name, work):
    call = WORKLOADS[name](work, 5, TINY).calls[0]
    with Spawner() as spawner:
        return call, spawner.call(call, work, deadline=time.monotonic() + 60)


def test_dropped_leaf_fails_the_solve_check(work):
    call, res = _first_call("solve-par", work)
    ledger = Ledger()
    assert ledger.record(call, res.exit_code, res.stdout)
    data = json.loads(res.stdout)
    data["steiner_dominating_set"].remove(data["leaves"][-1])
    data["size"] -= 1
    assert not ledger.record(call, 0, json.dumps(data).encode())
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "misses 1 leaves" in ledger.errors[0]


def test_changed_parent_entry_fails_the_gen_check(work):
    call, res = _first_call("gen-prufer", work)
    out = Path(call.argv[call.argv.index("--out") + 1])
    text = out.read_text()
    ledger = Ledger()
    assert ledger.record(call, res.exit_code, res.stdout)
    head, parents = text.splitlines()
    entries = parents.split()
    entries[-1] = "1" if entries[-1] != "1" else "2"
    out.write_text(f"{head}\n{' '.join(entries)}\n")
    assert not ledger.record(call, 0, b"")
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_wrong_verify_exit_code_fails(work):
    call, res = _first_call("verify-audit", work)
    assert res.exit_code == 2
    ledger = Ledger()
    assert not ledger.record(call, 0, res.stdout)
    assert not ledger.record(call, None, b"")
    assert ledger.failed == 2


def test_missing_wrap_point_drops_its_metrics(monkeypatch):
    import steinerdom.cli

    monkeypatch.delattr(steinerdom.cli, "parse_edge_list")
    result = run.run_workload("solve-par", seed=3, seconds=1.0, trace=1, sizes=TINY)
    assert result["correct"]
    names = set(result["metrics"])
    assert "tree_model.parse_edge_list.ns_per_v" not in names
    assert "tree_model.parse_parent_file.ns_per_v" in names


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.catalogue()]
    assert len(spec["per_layer"]) < 128


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "solve-par"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
