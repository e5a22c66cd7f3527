"""Tests for treewidth lower bounds (Section 4.4.2, Figures 4.7-4.8)."""

import random
from itertools import permutations

import pytest

from repro.bounds.lower import (
    degeneracy,
    gamma_r,
    lower_bound_names,
    minor_gamma_r,
    minor_min_width,
    treewidth_lower_bound,
)
from repro.decompositions.elimination import ordering_width
from repro.hypergraphs.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.instances.dimacs_like import grid_graph, queen_graph, random_gnp


def brute_force_treewidth(graph: Graph) -> int:
    vertices = sorted(graph.vertices(), key=repr)
    return min(
        ordering_width(graph, list(perm)) for perm in permutations(vertices)
    )


class TestExactOnKnownGraphs:
    def test_complete_graph(self):
        graph = complete_graph(6)
        assert minor_min_width(graph) == 5
        assert minor_gamma_r(graph) == 5
        assert degeneracy(graph) == 5

    def test_path(self):
        graph = path_graph(6)
        assert minor_min_width(graph) == 1
        assert degeneracy(graph) == 1

    def test_cycle(self):
        graph = cycle_graph(7)
        assert minor_min_width(graph) == 2
        assert degeneracy(graph) == 2

    def test_grid(self):
        # the n x n grid has treewidth n; degree bounds give at least 2
        graph = grid_graph(4)
        assert minor_min_width(graph) >= 2

    def test_empty_and_single(self):
        assert treewidth_lower_bound(Graph()) == 0
        assert minor_min_width(Graph(vertices=[1])) == 0

    def test_disconnected_isolated_vertices(self):
        graph = path_graph(4)
        graph.add_vertex(99)
        assert minor_min_width(graph) == 1
        assert minor_gamma_r(graph) >= 0


class TestGammaR:
    def test_complete(self):
        assert gamma_r(complete_graph(5)) == 4

    def test_cycle(self):
        # C5: every vertex has degree 2 and non-adjacent pairs exist
        assert gamma_r(cycle_graph(5)) == 2

    def test_star(self):
        # star K1,3: leaves are non-adjacent, degree 1
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3)])
        assert gamma_r(graph) == 1

    def test_empty(self):
        assert gamma_r(Graph()) == 0

    def test_single_vertex(self):
        assert gamma_r(Graph(vertices=[1])) == 0


class TestSoundness:
    """Every lower bound must be <= the true treewidth."""

    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        graph = random_gnp(n, rng.uniform(0.3, 0.8), seed=seed)
        truth = brute_force_treewidth(graph)
        assert minor_min_width(graph, rng) <= truth
        assert minor_gamma_r(graph, rng) <= truth
        assert degeneracy(graph, rng) <= truth
        assert treewidth_lower_bound(graph, rng=rng) <= truth

    def test_minor_min_width_at_least_degeneracy_often(self):
        """Contraction strengthens MMD; on queen graphs it is strictly
        better than raw degeneracy at least sometimes."""
        graph = queen_graph(5)
        assert minor_min_width(graph) >= degeneracy(graph) - 1

    def test_queen5_lower_bound_near_thesis(self):
        """Thesis Table 5.1: queen5_5 lb = 12."""
        bound = treewidth_lower_bound(queen_graph(5))
        assert 10 <= bound <= 18


class TestApi:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            treewidth_lower_bound(path_graph(3), methods=("nope",))

    @pytest.mark.parametrize("rng", [None, random.Random(0)])
    def test_unknown_method_on_empty_graph(self, rng):
        """Names are checked before the empty-graph shortcut."""
        with pytest.raises(ValueError, match="nope"):
            treewidth_lower_bound(Graph(), methods=("nope",), rng=rng)

    def test_names(self):
        assert set(lower_bound_names()) == {
            "degeneracy",
            "minor-min-width",
            "minor-gamma-r",
        }

    def test_combination_is_max(self):
        graph = queen_graph(4)
        combined = treewidth_lower_bound(
            graph, methods=("minor-min-width", "minor-gamma-r")
        )
        assert combined >= treewidth_lower_bound(
            graph, methods=("minor-min-width",)
        )

    def test_source_graph_unchanged(self):
        graph = cycle_graph(6)
        before = graph.copy()
        minor_min_width(graph)
        minor_gamma_r(graph)
        degeneracy(graph)
        assert graph == before
