"""Generators, enumeration streams, uniformity, and the shipped fixture."""

import math
import random
from itertools import product
from pathlib import Path

import pytest

from steinerdom import (
    FIXTURES,
    EdgeList,
    GeneratorSpec,
    ValidationError,
    build_adjacency,
    enumerate_parent_arrays,
    fixture,
    gen,
    leaf_set,
    parse_parent_file,
    random_prufer_edges,
    relabel_bfs,
    validate,
)
from steinerdom.corpus import _caterpillar_edges, _prufer_to_edges, _spider_edges

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


class TestGeneratorSpec:
    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            GeneratorSpec("wheel", n=5)

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            GeneratorSpec("path", n=3, seed=2**64)
        GeneratorSpec("path", n=3, seed=2**64 - 1)


class TestGen:
    def test_path(self):
        assert gen(GeneratorSpec("path", n=5)).parent == (0, 1, 2, 3, 4)

    def test_star(self):
        assert gen(GeneratorSpec("star", n=4)).parent == (0, 1, 1, 1)

    def test_binary(self):
        assert gen(GeneratorSpec("binary", n=7)).parent == (0, 1, 1, 2, 2, 3, 3)

    def test_spider_3x2(self):
        pa = gen(GeneratorSpec("spider", legs=3, leg_length=2))
        assert pa.parent == (0, 1, 1, 1, 2, 3, 4)

    def test_spider_needs_two_legs(self):
        with pytest.raises(ValidationError):
            gen(GeneratorSpec("spider", legs=1, leg_length=2))

    def test_spider_n_consistency(self):
        assert gen(GeneratorSpec("spider", n=7, legs=3, leg_length=2)).n == 7
        with pytest.raises(ValidationError):
            gen(GeneratorSpec("spider", n=8, legs=3, leg_length=2))

    def test_caterpillar_counts(self):
        pa = gen(GeneratorSpec("caterpillar", spine=4, pattern=(2, 0)))
        assert pa.n == 8
        t = build_adjacency(pa)
        assert len(leaf_set(t)) == 5  # 4 attached leaves plus one bare spine end

    def test_caterpillar_bad_pattern(self):
        with pytest.raises(ValidationError):
            gen(GeneratorSpec("caterpillar", spine=2, pattern=(-1,)))

    def test_missing_n(self):
        with pytest.raises(ValidationError):
            gen(GeneratorSpec("path"))

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError):
            gen(GeneratorSpec("star", n=0))

    def test_prufer_deterministic_in_seed(self):
        a = gen(GeneratorSpec("prufer", n=50, seed=7))
        b = gen(GeneratorSpec("prufer", n=50, seed=7))
        c = gen(GeneratorSpec("prufer", n=50, seed=8))
        assert a == b
        assert a != c  # overwhelmingly likely for n=50

    def test_random_parent_deterministic(self):
        a = gen(GeneratorSpec("random_parent", n=30, seed=3))
        assert a == gen(GeneratorSpec("random_parent", n=30, seed=3))

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", n=1),
            GeneratorSpec("path", n=9),
            GeneratorSpec("star", n=2),
            GeneratorSpec("binary", n=12),
            GeneratorSpec("prufer", n=1, seed=5),
            GeneratorSpec("prufer", n=2, seed=5),
            GeneratorSpec("prufer", n=33, seed=5),
            GeneratorSpec("random_parent", n=17, seed=5),
            GeneratorSpec("spider", legs=2, leg_length=3),
            GeneratorSpec("spider", legs=5, leg_length=1),
            GeneratorSpec("caterpillar", spine=1, pattern=(3,)),
            GeneratorSpec("caterpillar", spine=6),
        ],
    )
    def test_every_family_yields_a_valid_tree(self, spec):
        pa = gen(spec)
        assert len(validate(pa, "tree")) == 1


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_tree_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_parent_arrays(n, "trees")) == math.factorial(
            n - 1
        )

    def test_forest_count_n4(self):
        assert sum(1 for _ in enumerate_parent_arrays(4, "forests")) == 24

    def test_forests_n3_lexicographic(self):
        arrays = [pa.parent for pa in enumerate_parent_arrays(3, "forests")]
        assert arrays == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_trees_n3(self):
        assert [pa.parent for pa in enumerate_parent_arrays(3, "trees")] == [
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_no_duplicates_and_sorted(self):
        arrays = [pa.parent for pa in enumerate_parent_arrays(5, "trees")]
        assert arrays == sorted(arrays)
        assert len(arrays) == len(set(arrays))

    def test_every_emitted_array_validates(self):
        for pa in enumerate_parent_arrays(5, "forests"):
            validate(pa, "forest")
        for pa in enumerate_parent_arrays(5, "trees"):
            validate(pa, "tree")

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
            el = _prufer_to_edges(n, list(seq))
            assert len(el.edges) == n - 1
            assert len(validate(relabel_bfs(el)[0], "tree")) == 1
            seen.add(frozenset(el.edges))
        assert len(seen) == n ** (n - 2)

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
            key = frozenset(_prufer_to_edges(5, seq).edges)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == trees
        expected = samples / trees
        sigma = math.sqrt(samples * (1 / trees) * (1 - 1 / trees))
        worst = max(abs(c - expected) for c in counts.values())
        assert worst <= 5 * sigma, f"worst deviation {worst:.1f} > 5 sigma {5*sigma:.1f}"


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
        assert fixture("theorem1-audit-8").parent == (0, 1, 1, 1, 3, 4, 5, 6)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            fixture("nonexistent")

    def test_shipped_file_matches_registry(self):
        # the on-disk .par and the in-code registry must never drift
        text = (FIXTURE_DIR / "theorem1-audit-8.par").read_text()
        assert parse_parent_file(text) == FIXTURES["theorem1-audit-8"]
