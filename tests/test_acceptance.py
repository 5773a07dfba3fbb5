"""Release gates.  Each test prints one ACCEPTANCE line and asserts it.

The printed lines go out through capsys.disabled(), so they land in the
log with or without -s; `pytest tests/test_acceptance.py -v` shows one
line per gate.  All randomized gates use fixed seeds.
"""

import random
import time
from itertools import combinations

import pytest

from steinerdom import (
    DEFAULT_SIZES,
    build_adjacency,
    domination_number_dp,
    enumerate_parent_arrays,
    forest_domination,
    gen,
    induced_forest,
    is_dominating_set,
    is_steiner_set,
    leaf_set,
    linearity_gate,
    min_dominating_set,
    min_steiner_dominating_set,
    revalidate_certificate,
    run_bench,
    run_verify,
    steiner_domination,
    steiner_number,
)

pytestmark = pytest.mark.acceptance


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_tree(rng: random.Random, n_lo: int, n_hi: int):
    n = rng.randint(n_lo, n_hi)
    return gen("prufer", n=n, seed=rng.getrandbits(64))


def test_1_forest_pass_exhaustive(capsys):
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for n in range(1, 9):
        for pa in enumerate_parent_arrays(n, "forests"):
            t = build_adjacency(pa)
            dom = forest_domination(pa)
            agree = (
                len(dom) == min_dominating_set(t)[0] == domination_number_dp(t)
            )
            if not (agree and is_dominating_set(t, dom)):
                bad += 1
            checked += 1
    _report(
        capsys,
        1,
        bad == 0,
        f"{checked} forests n<=8: linear pass == bruteforce == dp and output "
        f"dominates ({bad} mismatches, {time.perf_counter() - t0:.1f}s)",
    )


def test_2_forest_pass_randomized(capsys):
    t0 = time.perf_counter()
    rng = random.Random(60_002)
    bad = 0
    for _ in range(10_000):
        pa = _random_tree(rng, 2, 60)
        if len(forest_domination(pa)) != domination_number_dp(build_adjacency(pa)):
            bad += 1
    _report(
        capsys,
        2,
        bad == 0,
        f"10000 random trees n in [2,60]: linear pass == dp "
        f"({bad} mismatches, {time.perf_counter() - t0:.1f}s)",
    )


def test_3_construction_validity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(300_003)
    bad = 0
    for _ in range(10_000):
        pa = _random_tree(rng, 2, 300)
        t = build_adjacency(pa)
        res = steiner_domination(pa)
        sd = res.steiner_dominating_set
        core_gamma = domination_number_dp(induced_forest(t, res.core.to_tree)[0])
        valid = (
            set(res.leaves) <= set(sd)
            and is_steiner_set(t, sd)
            and is_dominating_set(t, sd)
            and res.size == len(sd) == len(res.leaves) + core_gamma
        )
        if not valid:
            bad += 1
    _report(
        capsys,
        3,
        bad == 0,
        f"10000 random trees n in [2,300]: output contains all leaves, spans, "
        f"dominates, size == leaves + core dp ({bad} failures, "
        f"{time.perf_counter() - t0:.1f}s)",
    )


def test_4_size_formula_audit(tmp_path, capsys):
    t0 = time.perf_counter()
    runs = (
        ("exhaustive-9", run_verify("exhaustive", 9, cert_dir=tmp_path / "e9")),
        (
            "random-16",
            run_verify(
                "random", 16, count=2000, seed=160_004, cert_dir=tmp_path / "r16"
            ),
        ),
        (
            "random-24",
            run_verify(
                "random", 24, count=2000, seed=240_004, cert_dir=tmp_path / "r24"
            ),
        ),
    )
    dirs = {"exhaustive-9": tmp_path / "e9", "random-16": tmp_path / "r16",
            "random-24": tmp_path / "r24"}
    problems = []
    instances = 0
    certs = 0
    revalidated = 0
    for name, report in runs:
        instances += report.instances
        certs += len(report.certificates)
        if report.validity_failures or report.optimality_failures:
            problems.append(f"{name}: validity/optimality failures")
        if report.internal_errors:
            problems.append(f"{name}: formula beat the oracle")
        if report.fixture_outcome != "certificate":
            problems.append(f"{name}: fixture outcome {report.fixture_outcome}")
        if report.exit_code != 2:
            problems.append(f"{name}: exit {report.exit_code}")
        for stem in report.certificate_files:
            try:
                revalidate_certificate(
                    dirs[name] / f"{stem}.par", dirs[name] / f"{stem}.json"
                )
                revalidated += 1
            except Exception as exc:  # any revalidation break fails the gate
                problems.append(f"{name}/{stem}: {exc}")
    _report(
        capsys,
        4,
        not problems,
        f"{instances} instances over 3 runs, {certs} discrepancy certificates "
        f"all revalidated from disk ({revalidated}), fixture theorem1-audit-8 "
        f"-> certificate (construction 5, oracle 4)"
        + (f"; problems: {problems[:3]}" if problems else "")
        + f" ({time.perf_counter() - t0:.1f}s)",
    )


def test_5_every_leaf_in_every_minimum_steiner_set(capsys):
    t0 = time.perf_counter()
    bad = 0
    counted = 0
    for n in range(2, 10):
        for pa in enumerate_parent_arrays(n, "trees"):
            t = build_adjacency(pa)
            if steiner_number(t) != len(leaf_set(t)):
                bad += 1
            counted += 1
    rng = random.Random(140_005)
    for _ in range(500):
        t = build_adjacency(_random_tree(rng, 2, 14))
        if steiner_number(t) != len(leaf_set(t)):
            bad += 1
        counted += 1

    set_checked = 0
    rng = random.Random(120_005)
    pool = [pa for n in range(2, 8) for pa in enumerate_parent_arrays(n, "trees")]
    pool += [_random_tree(rng, 8, 12) for _ in range(200)]
    for pa in pool:
        t = build_adjacency(pa)
        leaves = set(leaf_set(t))
        k = steiner_number(t)
        for combo in combinations(range(1, t.n + 1), k):
            if is_steiner_set(t, combo):
                set_checked += 1
                if not leaves <= set(combo):
                    bad += 1
    _report(
        capsys,
        5,
        bad == 0,
        f"steiner number == leaf count on {counted} trees (n<=9 exhaustive + "
        f"500 random n<=14); {set_checked} minimum steiner sets over "
        f"{len(pool)} trees all contain every leaf ({bad} violations, "
        f"{time.perf_counter() - t0:.1f}s)",
    )


def test_6_linear_scaling(capsys):
    t0 = time.perf_counter()
    # the verdict that `steinerdom bench` prints, from the same function
    lines, ok = linearity_gate(run_bench(DEFAULT_SIZES, reps=5))
    _report(
        capsys,
        6,
        ok,
        f"n in {{1e4,1e5,1e6}}, linearity gate: "
        f"{'; '.join(' '.join(line.split()) for line in lines)} "
        f"({time.perf_counter() - t0:.1f}s)",
    )


def test_7_known_families(capsys):
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 13):
        size = steiner_domination(gen("star", n=n)).size
        if size != n - 1:
            bad.append(f"star{n}={size}")
    for n in (2, 3, 4):
        size = steiner_domination(gen("path", n=n)).size
        if size != 2:
            bad.append(f"path{n}={size}")
    for n in range(5, 13):
        pa = gen("path", n=n)
        expected = 2 + -(-(n - 4) // 3)
        size = steiner_domination(pa).size
        exact = min_steiner_dominating_set(build_adjacency(pa))[0]
        if not size == exact == expected:
            bad.append(f"path{n}: size={size} exact={exact} expected={expected}")
    _report(
        capsys,
        7,
        not bad,
        f"stars n=3..12 -> n-1; paths n=2..4 -> 2; paths n=5..12 -> "
        f"2+ceil((n-4)/3), matching the exact oracle"
        + (f"; failures: {bad}" if bad else "")
        + f" ({time.perf_counter() - t0:.1f}s)",
    )
