"""Tests for the exact set-cover branch and bound."""

import random
from itertools import combinations

import pytest

from repro.setcover.exact import ExactSetCoverSolver, exact_set_cover
from repro.setcover.greedy import UncoverableError, greedy_set_cover


def edges(**named):
    return {name: frozenset(edge) for name, edge in named.items()}


def brute_force_cover_size(target, instance) -> int:
    """Smallest cover by exhaustive subset enumeration."""
    target = set(target)
    if not target:
        return 0
    names = list(instance)
    for size in range(1, len(names) + 1):
        for subset in combinations(names, size):
            union = set()
            for name in subset:
                union |= instance[name]
            if target <= union:
                return size
    raise AssertionError("uncoverable in brute force")


class TestExact:
    def test_empty_target(self):
        assert exact_set_cover(set(), edges(a={1})) == []

    def test_beats_greedy_on_classic_instance(self):
        instance = edges(
            top={1, 2, 3, 4},
            bottom={5, 6, 7, 8},
            middle={2, 3, 4, 5, 6, 7},
        )
        target = set(range(1, 9))
        assert len(greedy_set_cover(target, instance)) == 3
        assert len(exact_set_cover(target, instance)) == 2

    def test_uncoverable(self):
        with pytest.raises(UncoverableError):
            exact_set_cover({1, 2}, edges(a={1}))

    def test_cover_is_valid(self):
        instance = edges(a={1, 2}, b={2, 3}, c={3, 4}, d={1, 4})
        cover = exact_set_cover({1, 2, 3, 4}, instance)
        union = set()
        for name in cover:
            union |= instance[name]
        assert {1, 2, 3, 4} <= union
        assert len(cover) == 2

    def test_matches_brute_force_random(self):
        rng = random.Random(7)
        for seed in range(25):
            universe = list(range(10))
            instance = {
                f"e{i}": frozenset(
                    rng.sample(universe, rng.randint(1, 4))
                )
                for i in range(7)
            }
            coverable = set()
            for edge in instance.values():
                coverable |= edge
            target = set(rng.sample(sorted(coverable), min(6, len(coverable))))
            expected = brute_force_cover_size(target, instance)
            assert len(exact_set_cover(target, instance)) == expected

    def test_solver_memoisation_consistent(self):
        instance = edges(a={1, 2, 3}, b={3, 4}, c={1, 4}, d={2})
        solver = ExactSetCoverSolver(instance)
        first = len(solver.cover({1, 2, 3, 4}))
        second = len(solver.cover({1, 2, 3, 4}))
        assert first == second == 2

    def test_solver_handles_many_overlapping_targets(self):
        instance = edges(
            a={1, 2}, b={2, 3}, c={3, 4}, d={4, 5}, e={5, 1}
        )
        solver = ExactSetCoverSolver(instance)
        for target in ({1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 4}, set()):
            size = len(solver.cover(target))
            assert size == brute_force_cover_size(target, instance)

    def test_dominated_edges_do_not_break_optimality(self):
        instance = edges(big={1, 2, 3}, sub1={1, 2}, sub2={2, 3}, other={4})
        assert len(exact_set_cover({1, 2, 3, 4}, instance)) == 2

    def test_duplicate_edges(self):
        instance = edges(a={1, 2}, b={1, 2})
        assert len(exact_set_cover({1, 2}, instance)) == 1

    def test_regression_search_must_respect_budget(self):
        """Regression: the branch and bound once returned a *complete but
        worse-than-greedy* cover because a finished branch was accepted
        without checking its size against the incumbent. Extracted from
        an elimination bag of the b08 circuit instance (greedy found 4,
        the buggy search returned 6; the optimum is 4)."""
        instance = edges(
            gate_109={"g101", "g109", "g97", "g99"},
            gate_112={"g108", "g109", "g112"},
            gate_113={"g103", "g108", "g112", "g113"},
            gate_116={"g105", "g113", "g116"},
            gate_118={"g108", "g109", "g117", "g118"},
            gate_119={"g108", "g112", "g119"},
            gate_120={"g109", "g119", "g120"},
            gate_121={"g113", "g115", "g119", "g121"},
            gate_122={"g113", "g118", "g119", "g122"},
            gate_123={"g117", "g121", "g123"},
            gate_124={"g112", "g120", "g123", "g124"},
            gate_125={"g116", "g119", "g124", "g125"},
            gate_126={"g116", "g123", "g126"},
            gate_127={"g120", "g123", "g127"},
            gate_128={"g116", "g118", "g121", "g128"},
            gate_129={"g120", "g125", "g127", "g129"},
            gate_130={"g120", "g122", "g123", "g130"},
            gate_131={"g121", "g123", "g131"},
            gate_132={"g123", "g129", "g132"},
            gate_134={"g123", "g125", "g126", "g134"},
        )
        bag = {
            "g109", "g112", "g113", "g116", "g118",
            "g119", "g120", "g121", "g123",
        }
        greedy = len(greedy_set_cover(bag, instance))
        exact = len(exact_set_cover(bag, instance))
        assert exact <= greedy
        assert exact == brute_force_cover_size(bag, instance)
