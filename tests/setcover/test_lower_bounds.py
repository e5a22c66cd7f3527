"""Tests for k-set-cover lower bounds (Section 8.1.1)."""

import random
from itertools import combinations

import pytest

from repro.setcover.lower_bounds import (
    k_set_cover_lower_bound,
    size_profile_lower_bound,
)
from tests.reference import ceiling_lower_bound


class TestCeilingBound:
    def test_basic(self):
        assert ceiling_lower_bound(7, [3, 3, 3]) == 3
        assert ceiling_lower_bound(6, [3, 3]) == 2
        assert ceiling_lower_bound(1, [5]) == 1

    def test_zero_k(self):
        assert ceiling_lower_bound(0, [3]) == 0
        assert ceiling_lower_bound(-2, [3]) == 0

    def test_no_edges_raises(self):
        with pytest.raises(ValueError):
            ceiling_lower_bound(1, [])


class TestSizeProfileBound:
    def test_uses_largest_edges(self):
        # sizes 5, 3, 1: covering 7 needs at least 2 (5 + 3 >= 7)
        assert size_profile_lower_bound(7, [1, 5, 3]) == 2
        # covering 9 needs all three
        assert size_profile_lower_bound(9, [1, 5, 3]) == 3

    def test_dominates_ceiling(self):
        rng = random.Random(1)
        for _ in range(50):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            k = rng.randint(1, sum(sizes))
            assert size_profile_lower_bound(k, sizes) >= ceiling_lower_bound(
                k, sizes
            )

    def test_insufficient_capacity_raises(self):
        with pytest.raises(ValueError):
            size_profile_lower_bound(10, [2, 3])

    def test_zero_k(self):
        assert size_profile_lower_bound(0, [3]) == 0


class TestCombinedBound:
    def edges(self, *sizes):
        return {
            f"e{i}": frozenset(range(100 * i, 100 * i + size))
            for i, size in enumerate(sizes)
        }

    def test_combined_is_max(self):
        instance = self.edges(4, 2, 2)
        assert k_set_cover_lower_bound(5, instance) == 2

    def test_monotone_in_k(self):
        instance = self.edges(3, 3, 2, 1)
        bounds = [k_set_cover_lower_bound(k, instance) for k in range(1, 10)]
        assert bounds == sorted(bounds)

    def test_sound_against_all_k_subsets(self):
        """The bound must hold for EVERY k-subset's true cover number."""
        rng = random.Random(3)
        universe = list(range(8))
        instance = {
            f"e{i}": frozenset(rng.sample(universe, rng.randint(1, 4)))
            for i in range(6)
        }
        coverable = set()
        for edge in instance.values():
            coverable |= edge

        def true_cover(target):
            names = list(instance)
            for size in range(0, len(names) + 1):
                for subset in combinations(names, size):
                    union = set()
                    for name in subset:
                        union |= instance[name]
                    if set(target) <= union:
                        return size
            raise AssertionError

        for k in range(1, len(coverable) + 1):
            bound = k_set_cover_lower_bound(k, instance)
            # the bound must not exceed the cover number of ANY k-subset,
            # i.e. it must be <= the cheapest one.
            cheapest = min(
                true_cover(subset)
                for subset in combinations(sorted(coverable), k)
            )
            assert bound <= cheapest
