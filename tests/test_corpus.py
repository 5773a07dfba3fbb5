"""Generators, enumeration streams, uniformity, and the shipped fixture."""

import math
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from steinerdom import (
    FIXTURES,
    EdgeList,
    ValidationError,
    build_adjacency,
    enumerate_parent_arrays,
    gen,
    leaf_set,
    parse_parent_file,
    random_prufer_edges,
    relabel_bfs,
    validate,
)
from steinerdom import corpus
from steinerdom.corpus import _caterpillar_edges, _prufer_rows, _randints, _spider_edges

from conftest import reference_prufer_edges

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


class TestGen:
    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="^unknown family 'wheel'; choose from "):
            gen("wheel", n=5)

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="^seed must fit in 64 bits$"):
            gen("path", n=3, seed=2**64)
        assert gen("path", n=3, seed=2**64 - 1).n == 3

    def test_path(self):
        assert tuple(gen("path", n=5).parent) == (0, 1, 2, 3, 4)

    def test_star(self):
        assert tuple(gen("star", n=4).parent) == (0, 1, 1, 1)

    def test_binary(self):
        assert tuple(gen("binary", n=7).parent) == (0, 1, 1, 2, 2, 3, 3)

    def test_spider_3x2(self):
        pa = gen("spider", legs=3, leg_length=2)
        assert tuple(pa.parent) == (0, 1, 1, 1, 2, 3, 4)

    def test_spider_needs_two_legs(self):
        with pytest.raises(ValidationError, match="^spider requires legs >= 2, got 1$"):
            gen("spider", legs=1, leg_length=2)

    def test_spider_n_consistency(self):
        assert gen("spider", n=7, legs=3, leg_length=2).n == 7
        with pytest.raises(
            ValidationError, match="^spider with legs=3 leg_length=2 has 7 vertices, not 8$"
        ):
            gen("spider", n=8, legs=3, leg_length=2)

    def test_caterpillar_counts(self):
        pa = gen("caterpillar", spine=4, pattern=(2, 0))
        assert pa.n == 8
        t = build_adjacency(pa)
        assert len(leaf_set(t)) == 5  # 4 attached leaves plus one bare spine end

    def test_caterpillar_bad_pattern(self):
        for pattern in ((-1,), ()):
            with pytest.raises(
                ValidationError, match="^caterpillar pattern must be non-negative counts$"
            ):
                gen("caterpillar", spine=2, pattern=pattern)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (dict(family="spider", legs=3), "spider requires legs and leg_length"),
            (dict(family="spider", leg_length=2), "spider requires legs and leg_length"),
            (dict(family="spider", legs=3, leg_length=0),
             "spider requires leg_length >= 1, got 0"),
            (dict(family="caterpillar", pattern=(1,)), "caterpillar requires spine"),
            (dict(family="caterpillar", spine=0), "caterpillar requires spine >= 1, got 0"),
            (dict(family="caterpillar", n=9, spine=4, pattern=(2, 0)),
             "caterpillar with spine=4 pattern=(2, 0) has 8 vertices, not 9"),
        ],
        ids=["spider-no-leg-length", "spider-no-legs", "spider-leg-length-0",
             "caterpillar-no-spine", "caterpillar-spine-0", "caterpillar-n-disagrees"],
    )
    def test_shape_parameter_errors_are_named(self, spec, message):
        with pytest.raises(ValidationError) as info:
            gen(**spec)
        assert str(info.value) == message

    def test_missing_n(self):
        with pytest.raises(ValidationError, match="^family 'path' requires n$"):
            gen("path")

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError, match="^n must be >= 1, got 0$"):
            gen("star", n=0)

    def test_prufer_deterministic_in_seed(self):
        a = gen("prufer", n=50, seed=7)
        b = gen("prufer", n=50, seed=7)
        c = gen("prufer", n=50, seed=8)
        assert a == b
        assert a != c  # overwhelmingly likely for n=50

    def test_random_parent_deterministic(self):
        a = gen("random_parent", n=30, seed=3)
        assert a == gen("random_parent", n=30, seed=3)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="path", n=1),
            dict(family="path", n=9),
            dict(family="star", n=2),
            dict(family="binary", n=12),
            dict(family="prufer", n=1, seed=5),
            dict(family="prufer", n=2, seed=5),
            dict(family="prufer", n=33, seed=5),
            dict(family="random_parent", n=17, seed=5),
            dict(family="spider", legs=2, leg_length=3),
            dict(family="spider", legs=5, leg_length=1),
            dict(family="caterpillar", spine=1, pattern=(3,)),
            dict(family="caterpillar", spine=6),
        ],
    )
    def test_every_family_yields_a_valid_tree(self, spec):
        pa = gen(**spec)
        assert len(validate(pa)) == 1


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_tree_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_parent_arrays(n, "trees")) == math.factorial(
            n - 1
        )

    def test_forest_count_n4(self):
        assert sum(1 for _ in enumerate_parent_arrays(4, "forests")) == 24

    def test_forests_n3_lexicographic(self):
        arrays = [tuple(pa.parent) for pa in enumerate_parent_arrays(3, "forests")]
        assert arrays == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_trees_n3(self):
        assert [tuple(pa.parent) for pa in enumerate_parent_arrays(3, "trees")] == [
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_no_duplicates_and_sorted(self):
        arrays = [tuple(pa.parent) for pa in enumerate_parent_arrays(5, "trees")]
        assert arrays == sorted(arrays)
        assert len(arrays) == len(set(arrays))

    def test_every_emitted_array_validates(self):
        forests = list(enumerate_parent_arrays(5, "forests"))
        assert len(forests) == 120  # 5! arrays with parent[i] in 0..i
        for pa in forests:
            zeros = tuple(i + 1 for i, p in enumerate(pa.parent) if p == 0)
            assert pa.roots() == zeros and zeros[0] == 1
        trees = list(enumerate_parent_arrays(5, "trees"))
        assert len(trees) == 24  # 4!: vertex 1 is the only root
        for pa in trees:
            assert validate(pa) == (1,)

    def test_cap(self):
        with pytest.raises(ValidationError):
            next(enumerate_parent_arrays(11, "trees"))

    def test_n_too_small(self):
        with pytest.raises(ValidationError):
            next(enumerate_parent_arrays(0, "trees"))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            next(enumerate_parent_arrays(3, "graphs"))


class TestPruferDecode:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bijection_over_all_sequences(self, n):
        """Every sequence decodes to a distinct valid labeled tree and all
        n^(n-2) labeled trees appear: the decode is a bijection."""
        seen = set()
        for seq in product(range(1, n + 1), repeat=n - 2):
            el = reference_prufer_edges(n, list(seq))
            assert len(el.edges) == n - 1
            assert len(validate(relabel_bfs(el)[0])) == 1
            seen.add(frozenset(el.edges))
        assert len(seen) == n ** (n - 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_are_the_reference_tree(self, n):
        """Every sequence: the decode's rows hold each edge of the
        reference decode once from each end, and gen's tree is
        relabel_bfs's on the reference edges."""
        for seq in product(range(1, n + 1), repeat=max(n - 2, 0)):
            el = reference_prufer_edges(n, seq)
            if n > 1:
                rows = _prufer_rows(n, list(seq))
                assert rows[0] == []
                assert sorted((u, v) for u, row in enumerate(rows) for v in row) == sorted(
                    el.edges + tuple((v, u) for u, v in el.edges)
                )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "_randints", lambda rng, n, m: list(seq))
                assert gen("prufer", n) == relabel_bfs(el)[0], seq

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_large_gen_is_the_reference_tree(self, seed):
        n = 50_000
        rng = random.Random(seed)
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        expected = relabel_bfs(reference_prufer_edges(n, seq))[0]
        assert gen("prufer", n, seed) == expected

    def test_gen_peak_memory(self):
        """gen decodes into adjacency rows and relabels them in place; an
        edge list kept beside the rows took 296 bytes per vertex here."""
        n = 10**5
        tracemalloc.start()
        try:
            gen("prufer", n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 240, f"{peak / n:.0f} B/vertex"

    def test_tiny_trees(self):
        assert random_prufer_edges(1, 0).edges == ()
        assert random_prufer_edges(2, 0).edges == ((1, 2),)

    @pytest.mark.slow
    def test_uniform_over_labeled_trees(self):
        """100,000 samples at n=5: each of the 125 labeled trees shows up
        within 5 standard deviations of the uniform expectation."""
        samples = 100_000
        trees = 125
        rng = random.Random(1009)
        counts = {}
        for _ in range(samples):
            seq = [rng.randint(1, 5) for _ in range(3)]
            key = frozenset(reference_prufer_edges(5, seq).edges)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == trees
        expected = samples / trees
        sigma = math.sqrt(samples * (1 / trees) * (1 - 1 / trees))
        worst = max(abs(c - expected) for c in counts.values())
        assert worst <= 5 * sigma, f"worst deviation {worst:.1f} > 5 sigma {5*sigma:.1f}"


# around each power of two the rejection rate of randint(1, n) jumps
DRAW_NS = (3, 4, 5, 255, 256, 257, 65535, 65536, 65537,
           2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)


class TestBulkDraws:
    """random_prufer_edges draws its sequence in bulk; the draws must be
    randint's, value for value, so every generated tree stays the same."""

    @pytest.mark.parametrize("n", DRAW_NS)
    @pytest.mark.parametrize("chunk", [7, corpus._DRAW_CHUNK])
    def test_equal_to_randint(self, n, chunk, monkeypatch):
        # a chunk of 7 words makes every request span many getrandbits calls
        monkeypatch.setattr(corpus, "_DRAW_CHUNK", chunk)
        for seed in (0, 1, 12345, 2**64 - 1):
            for m in (0, 1, 2, 3, 50, 1000):
                rng = random.Random(seed)
                expected = [rng.randint(1, n) for _ in range(m)]
                assert _randints(random.Random(seed), n, m) == expected, (seed, m)

    def test_prufer_sequence_is_randints(self):
        for n in (3, 4, 10, 1000):
            rng = random.Random(n)
            seq = [rng.randint(1, n) for _ in range(n - 2)]
            el = random_prufer_edges(n, n)
            assert set(el.edges) == set(reference_prufer_edges(n, seq).edges)
            # one edge per pair, each as (u, v) with u < v, in ascending u
            assert all(u < v for u, v in el.edges) and len(el.edges) == n - 1
            assert [u for u, _ in el.edges] == sorted(u for u, _ in el.edges)

    def test_limit_is_named(self):
        with pytest.raises(ValidationError, match="4294967295"):
            random_prufer_edges(2**32, 0)

    def test_n_must_be_positive(self):
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"^n must be >= 1, got {n}$"):
                random_prufer_edges(n, 0)


class TestTrustedEdgeLists:
    """The generators build their edge lists without EdgeList's checks;
    the checked constructor must accept each one unchanged."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 2**64 - 1])
    def test_prufer(self, seed):
        for n in range(1, 61):
            el = random_prufer_edges(n, seed)
            assert EdgeList(el.n, el.edges) == el

    def test_prufer_large(self):
        el = random_prufer_edges(10**4, 5)
        assert EdgeList(el.n, el.edges) == el

    def test_spider(self):
        for legs, leg_length in product(range(2, 6), range(1, 5)):
            el = _spider_edges(legs, leg_length)
            assert EdgeList(el.n, el.edges) == el

    @pytest.mark.parametrize("pattern", [(0,), (1,), (2, 0, 3)])
    def test_caterpillar(self, pattern):
        for spine in range(1, 7):
            el = _caterpillar_edges(spine, pattern)
            assert EdgeList(el.n, el.edges) == el


class TestFixture:
    def test_registered_instance(self):
        assert tuple(FIXTURES["theorem1-audit-8"].parent) == (0, 1, 1, 1, 3, 4, 5, 6)

    def test_shipped_file_matches_registry(self):
        # the on-disk .par and the in-code registry must never drift
        text = (FIXTURE_DIR / "theorem1-audit-8.par").read_text()
        assert parse_parent_file(text) == FIXTURES["theorem1-audit-8"]
