"""Tests for SAIGA-ghw (Section 7.2)."""

import random

import pytest

from repro.genetic.saiga import ParameterVector, saiga_ghw
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.hypergraphs import adder, clique_hypergraph
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.setcover.greedy import UncoverableError


class TestParameterVector:
    def test_random_in_ranges(self):
        for seed in range(20):
            vector = ParameterVector.random(random.Random(seed))
            assert (
                ParameterVector.RATE_MIN
                <= vector.crossover_rate
                <= ParameterVector.RATE_MAX
            )
            assert (
                ParameterVector.RATE_MIN
                <= vector.mutation_rate
                <= ParameterVector.RATE_MAX
            )
            assert (
                ParameterVector.GROUP_MIN
                <= vector.group_size
                <= ParameterVector.GROUP_MAX
            )

    def test_mutation_stays_in_ranges(self):
        rng = random.Random(0)
        vector = ParameterVector.random(rng)
        for _ in range(50):
            vector = vector.mutated(rng)
            assert (
                ParameterVector.RATE_MIN
                <= vector.mutation_rate
                <= ParameterVector.RATE_MAX
            )
            assert (
                ParameterVector.GROUP_MIN
                <= vector.group_size
                <= ParameterVector.GROUP_MAX
            )

    def test_orientation_moves_rates_toward_target(self):
        rng = random.Random(1)
        low = ParameterVector(0.1, 0.1, 2, "POS", "ISM")
        high = ParameterVector(0.9, 0.9, 4, "PMX", "EM")
        pulled = low.oriented_toward(high, rng, pull=0.5)
        assert 0.1 < pulled.crossover_rate < 0.9
        assert 0.1 < pulled.mutation_rate < 0.9

    def test_as_ga_parameters_valid(self):
        vector = ParameterVector.random(random.Random(2))
        vector.as_ga_parameters(10, 5).validated()


class TestSaiga:
    def test_example5_reaches_optimum(self, example5):
        result = saiga_ghw(
            example5,
            islands=3,
            island_population=10,
            epochs=4,
            epoch_generations=5,
            seed=0,
        )
        assert result.best_fitness == 2

    def test_adder(self):
        result = saiga_ghw(
            adder(3),
            islands=2,
            island_population=10,
            epochs=3,
            epoch_generations=4,
            seed=0,
        )
        assert result.best_fitness == 2

    def test_never_below_true_ghw(self):
        hypergraph = clique_hypergraph(6)
        truth = branch_and_bound_ghw(hypergraph).value
        result = saiga_ghw(
            hypergraph,
            islands=2,
            island_population=8,
            epochs=3,
            epoch_generations=3,
            seed=3,
        )
        assert result.best_fitness >= truth

    def test_history_monotone(self, example5):
        result = saiga_ghw(
            example5, islands=2, island_population=8, epochs=5,
            epoch_generations=3, seed=1,
        )
        assert result.history == sorted(result.history, reverse=True)

    def test_reports_final_parameters(self, example5):
        result = saiga_ghw(
            example5, islands=3, island_population=6, epochs=2,
            epoch_generations=2, seed=2,
        )
        assert len(result.final_parameters) == 3

    def test_reproducible(self, example5):
        runs = [
            saiga_ghw(
                example5, islands=2, island_population=6, epochs=3,
                epoch_generations=3, seed=11,
            ).best_fitness
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_edgeless(self):
        # a vertex in no hyperedge cannot be covered: ghw is undefined
        with pytest.raises(UncoverableError):
            saiga_ghw(Hypergraph(vertices=[1]))

    def test_target_stops_early(self, example5):
        result = saiga_ghw(
            example5, islands=2, island_population=8, epochs=50,
            epoch_generations=3, seed=0, target=2,
        )
        assert result.best_fitness == 2
