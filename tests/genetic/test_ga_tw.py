"""Tests for GA-tw (Chapter 6)."""

from repro.decompositions.elimination import ordering_width
from repro.genetic.engine import GAParameters
from repro.genetic.ga_tw import ga_treewidth
from repro.hypergraphs.graph import Graph, cycle_graph, path_graph
from repro.instances.dimacs_like import grid_graph, queen_graph
from repro.search.astar_tw import astar_treewidth

FAST = GAParameters(population_size=20, max_iterations=30)


class TestUpperBoundValidity:
    def test_result_is_achievable(self):
        graph = grid_graph(3)
        result = ga_treewidth(graph, parameters=FAST, seed=1)
        assert (
            ordering_width(graph, result.best_individual)
            == result.best_fitness
        )

    def test_never_below_treewidth(self):
        graph = queen_graph(4)
        truth = astar_treewidth(graph).value
        result = ga_treewidth(graph, parameters=FAST, seed=2)
        assert result.best_fitness >= truth

    def test_finds_optimum_on_easy_graphs(self):
        assert ga_treewidth(path_graph(10), parameters=FAST).best_fitness == 1
        assert ga_treewidth(cycle_graph(8), parameters=FAST).best_fitness == 2

    def test_grid3_optimal(self):
        result = ga_treewidth(grid_graph(3), parameters=FAST, seed=0)
        assert result.best_fitness == 3


class TestBehaviour:
    def test_accepts_hypergraph(self, example5):
        result = ga_treewidth(example5, parameters=FAST, seed=0)
        assert result.best_fitness >= 1

    def test_single_vertex_graph(self):
        result = ga_treewidth(Graph(vertices=[1]))
        assert result.best_fitness == 0

    def test_heuristic_seeding_never_hurts(self):
        graph = queen_graph(4)
        seeded = ga_treewidth(
            graph, parameters=FAST, seed=3, seed_heuristics=True
        )
        unseeded = ga_treewidth(
            graph, parameters=FAST, seed=3, seed_heuristics=False
        )
        # min-fill is strong on queen graphs; the seeded run starts at
        # least as good and the engine keeps the champion
        assert seeded.best_fitness <= unseeded.history[0]

    def test_reproducible(self):
        graph = grid_graph(3)
        a = ga_treewidth(graph, parameters=FAST, seed=7).best_fitness
        b = ga_treewidth(graph, parameters=FAST, seed=7).best_fitness
        assert a == b

    def test_target_early_stop(self):
        graph = path_graph(12)
        result = ga_treewidth(graph, parameters=FAST, seed=0, target=1)
        assert result.best_fitness == 1
