"""Tests for the greedy set-cover heuristic (Figure 7.2)."""

import random

import pytest

from repro.setcover.greedy import UncoverableError, greedy_set_cover


def edges(**named):
    return {name: frozenset(edge) for name, edge in named.items()}


class TestGreedy:
    def test_empty_target(self):
        assert greedy_set_cover(set(), edges(a={1, 2})) == []

    def test_single_edge_cover(self):
        cover = greedy_set_cover({1, 2}, edges(a={1, 2, 3}, b={1}))
        assert cover == ["a"]

    def test_takes_largest_gain_first(self):
        cover = greedy_set_cover(
            {1, 2, 3, 4},
            edges(big={1, 2, 3}, small1={1, 4}, small2={4}),
        )
        assert cover[0] == "big"
        assert set(cover) == {"big", "small1"}

    def test_classic_greedy_suboptimality(self):
        """The textbook instance where greedy picks one more set than
        optimal: optimal = {top, bottom}, greedy starts with the big
        middle set."""
        instance = edges(
            top={1, 2, 3, 4},
            bottom={5, 6, 7, 8},
            middle={2, 3, 4, 5, 6, 7},
        )
        cover = greedy_set_cover(set(range(1, 9)), instance)
        assert len(cover) == 3
        assert cover[0] == "middle"

    def test_uncoverable_raises(self):
        with pytest.raises(UncoverableError):
            greedy_set_cover({1, 99}, edges(a={1}))

    def test_deterministic_without_rng(self):
        instance = edges(a={1, 2}, b={1, 2}, c={3})
        first = greedy_set_cover({1, 2, 3}, instance)
        second = greedy_set_cover({1, 2, 3}, instance)
        assert first == second

    def test_rng_tie_breaking_varies(self):
        instance = edges(**{f"e{i}": {1, 2} for i in range(10)})
        seen = {
            tuple(greedy_set_cover({1, 2}, instance, rng=random.Random(s)))
            for s in range(20)
        }
        assert len(seen) > 1

    def test_cover_size_helper(self):
        assert len(greedy_set_cover({1, 2, 3}, edges(a={1, 2}, b={3}))) == 2

    def test_cover_is_actually_a_cover(self):
        rng = random.Random(0)
        for seed in range(20):
            universe = set(range(12))
            instance = {
                f"e{i}": frozenset(rng.sample(sorted(universe), rng.randint(1, 5)))
                for i in range(8)
            }
            covered = set()
            for edge in instance.values():
                covered |= edge
            target = covered
            cover = greedy_set_cover(target, instance)
            union = set()
            for name in cover:
                union |= instance[name]
            assert target <= union
