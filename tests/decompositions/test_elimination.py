"""Tests for bucket/vertex elimination and ordering evaluation (Sec. 2.5)."""

import random
from itertools import permutations

import pytest

from repro.decompositions.elimination import (
    cliques_of_ordering,
    elimination_bags,
    ordering_ghw,
    ordering_to_ghd,
    ordering_to_tree_decomposition,
    ordering_width,
)
from repro.hypergraphs.elimination_graph import eliminate_sequence
from repro.hypergraphs.graph import complete_graph, cycle_graph, path_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import grid_graph, random_gnp
from repro.instances.hypergraphs import random_csp_hypergraph
from repro.kernels.bithypergraph import BitGraph


class TestEliminationBags:
    def test_matches_explicit_elimination(self):
        graph = random_gnp(10, 0.4, seed=11)
        ordering = sorted(graph.vertices())
        random.Random(0).shuffle(ordering)
        bags = elimination_bags(graph, ordering)
        explicit = eliminate_sequence(graph, ordering)
        assert [bags[v] for v in ordering] == explicit

    def test_rejects_non_permutation(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            elimination_bags(graph, [0, 1])
        with pytest.raises(ValueError):
            elimination_bags(graph, [0, 1, 1])

    @pytest.mark.parametrize(
        "ordering, named",
        [
            ([0, 1, 1], "duplicate vertex 1"),
            ([1, 0, 1, 2], "duplicate vertex 1"),
            ([0, 7, 2], "unknown vertex 7"),
            ([0, 7], "unknown vertex 7"),
            ([2, 0], "missing vertex 1"),
        ],
    )
    def test_rejection_names_the_vertex(self, ordering, named):
        # The kernel rejects the ordering; the error still names the
        # first duplicate or unknown vertex, else the smallest missing one.
        graph = path_graph(3)
        message = f"ordering is not a permutation of the vertices: {named}"
        for call in (
            lambda: elimination_bags(graph, ordering),
            lambda: elimination_bags(BitGraph.from_graph(graph), ordering),
            lambda: ordering_width(graph, ordering),
            lambda: ordering_to_tree_decomposition(graph, ordering),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_figure_2_11_ordering(self, figure_2_11):
        """The thesis's sigma = (x6, x5, ..., x1) eliminated back-to-front
        means elimination order x6 first in our convention? No — the
        thesis eliminates v_n (= x1) first; our ordering lists x1 first."""
        primal = figure_2_11.primal_graph()
        ordering = ["x1", "x2", "x3", "x4", "x5", "x6"]
        bags = elimination_bags(primal, ordering)
        assert bags["x1"] == {"x1", "x2", "x3"}
        assert ordering_width(primal, ordering) == 2


class TestOrderingWidth:
    def test_path(self):
        graph = path_graph(5)
        assert ordering_width(graph, [0, 1, 2, 3, 4]) == 1

    def test_bad_ordering_on_cycle(self):
        graph = cycle_graph(4)
        # eliminating opposite vertices first creates K3 bags: width 2
        assert ordering_width(graph, [0, 2, 1, 3]) == 2
        assert ordering_width(graph, [0, 1, 2, 3]) == 2

    def test_complete_graph_any_order(self):
        graph = complete_graph(5)
        for perm in permutations(range(5)):
            assert ordering_width(graph, list(perm)) == 4

    def test_matches_full_bag_computation(self):
        graph = random_gnp(12, 0.3, seed=5)
        rng = random.Random(3)
        for _ in range(10):
            ordering = sorted(graph.vertices())
            rng.shuffle(ordering)
            bags = elimination_bags(graph, ordering)
            expected = max(len(bag) for bag in bags.values()) - 1
            assert ordering_width(graph, ordering) == expected

    def test_grid_optimal_ordering(self):
        """Sweeping a 3 x 5 grid column by column keeps the frontier at
        the short side: width 3. Sweeping row by row pays the long side."""
        graph = grid_graph(3, 5)
        column_major = sorted(graph.vertices(), key=lambda v: (v[1], v[0]))
        assert ordering_width(graph, column_major) == 3
        row_major = sorted(graph.vertices())
        assert ordering_width(graph, row_major) == 5


class TestOrderingToTreeDecomposition:
    def test_valid_and_width_consistent(self):
        graph = random_gnp(12, 0.35, seed=21)
        rng = random.Random(1)
        ordering = sorted(graph.vertices())
        rng.shuffle(ordering)
        decomposition = ordering_to_tree_decomposition(graph, ordering)
        decomposition.validate(graph)
        assert decomposition.width() == ordering_width(graph, ordering)

    def test_disconnected_graph_still_a_tree(self):
        graph = path_graph(3)
        graph.add_vertex(99)
        graph.add_edge(99, 100)
        ordering = [0, 1, 2, 99, 100]
        decomposition = ordering_to_tree_decomposition(graph, ordering)
        decomposition.validate(graph)

    def test_single_vertex(self):
        graph = path_graph(1)
        decomposition = ordering_to_tree_decomposition(graph, [0])
        decomposition.validate(graph)
        assert decomposition.width() == 0


class TestOrderingGhw:
    def test_example5_optimal_ordering(self, example5):
        ordering = ["x2", "x6", "x4", "x1", "x3", "x5"]
        assert ordering_ghw(example5, ordering, cover="exact") == 2

    def test_greedy_never_below_exact(self, example5):
        rng = random.Random(9)
        vertices = sorted(example5.vertices())
        for _ in range(20):
            ordering = vertices[:]
            rng.shuffle(ordering)
            exact = ordering_ghw(example5, ordering, cover="exact")
            greedy = ordering_ghw(example5, ordering, cover="greedy")
            assert greedy >= exact

    def test_unknown_cover_mode(self, example5):
        with pytest.raises(ValueError):
            ordering_ghw(example5, sorted(example5.vertices()), cover="magic")

    @pytest.mark.parametrize("build", [ordering_ghw, ordering_to_ghd])
    def test_unknown_cover_mode_raises_without_bags(self, build):
        # No bag to cover: the mode is still checked, at entry.
        with pytest.raises(ValueError, match="unknown cover mode 'optimal'"):
            build(Hypergraph(), [], cover="optimal")

    def test_ghd_construction_matches_width(self):
        hypergraph = random_csp_hypergraph(8, 6, arity=3, seed=4)
        ordering = sorted(hypergraph.vertices())
        for cover in ("greedy", "exact"):
            ghd = ordering_to_ghd(hypergraph, ordering, cover=cover)
            ghd.validate(hypergraph)
            assert ghd.width() == ordering_ghw(
                hypergraph, ordering, cover=cover
            )

    def test_cliques_of_ordering(self, figure_2_11):
        cliques = cliques_of_ordering(
            figure_2_11, ["x1", "x2", "x3", "x4", "x5", "x6"]
        )
        assert cliques[0] == {"x1", "x2", "x3"}
        assert len(cliques) == 6
