"""Tests for the high-level public API."""

import sys

import pytest

from repro.core.api import (
    decompose,
    decompose_graph,
    generalized_hypertree_width,
    ghw_bounds,
    ghw_upper_bound,
    treewidth,
    treewidth_bounds,
    treewidth_upper_bound,
    validate_hypergraph,
)
from repro.hypergraphs.graph import Graph, cycle_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import grid_graph
from repro.instances.hypergraphs import adder, clique_hypergraph


class TestTreewidth:
    def test_astar_and_bb_agree(self):
        graph = grid_graph(3)
        assert treewidth(graph, "astar").value == 3
        assert treewidth(graph, "bb").value == 3

    def test_accepts_hypergraph(self, example5):
        # Figure 2.6: Example 5 admits a width-2 tree decomposition.
        result = treewidth(example5)
        assert result.value == 2

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            treewidth(cycle_graph(4), "magic")

    def test_bounds_bracket_truth(self):
        graph = grid_graph(4)
        lower, upper = treewidth_bounds(graph)
        assert lower <= 4 <= upper

    def test_upper_bound_methods(self):
        graph = cycle_graph(8)
        assert treewidth_upper_bound(graph, "min-fill") == 2
        assert treewidth_upper_bound(graph, "ga") >= 2


class TestGhw:
    def test_bb_and_astar_agree(self, example5):
        assert generalized_hypertree_width(example5, "bb").value == 2
        assert generalized_hypertree_width(example5, "astar").value == 2

    def test_unknown_algorithm(self, example5):
        with pytest.raises(ValueError):
            generalized_hypertree_width(example5, "magic")

    def test_bounds(self, example5):
        lower, upper = ghw_bounds(example5)
        assert lower <= 2 <= upper

    def test_upper_bound_methods(self, example5):
        assert ghw_upper_bound(example5, "ga") >= 2
        assert ghw_upper_bound(example5, "saiga") >= 2
        with pytest.raises(ValueError):
            ghw_upper_bound(example5, "magic")

    def test_isolated_vertices_rejected(self):
        bad = Hypergraph({"e": {1, 2}}, vertices=[99])
        with pytest.raises(ValueError):
            generalized_hypertree_width(bad)
        with pytest.raises(ValueError):
            validate_hypergraph(bad)


class TestDecompose:
    def test_graph_decomposition_valid_and_optimal(self):
        graph = grid_graph(3)
        decomposition = decompose_graph(graph)
        decomposition.validate(graph)
        assert decomposition.width() == 3

    def test_graph_decomposition_heuristic(self):
        graph = cycle_graph(10)
        decomposition = decompose_graph(graph, algorithm="min-fill")
        decomposition.validate(graph)
        assert decomposition.width() == 2

    def test_graph_decomposition_ga(self):
        graph = cycle_graph(6)
        decomposition = decompose_graph(graph, algorithm="ga")
        decomposition.validate(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            decompose_graph(Graph())

    def test_ghd_exact(self, example5):
        ghd = decompose(example5, algorithm="bb")
        ghd.validate(example5)
        assert ghd.is_complete(example5)
        assert ghd.width() == 2

    def test_ghd_heuristics(self, example5):
        for algorithm in ("ga", "saiga", "min-fill"):
            ghd = decompose(example5, algorithm=algorithm, cover="greedy")
            ghd.validate(example5)
            assert ghd.width() >= 2

    def test_unknown_cover_mode_raises_before_the_solver(
        self, example5, monkeypatch
    ):
        def run(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(sys.modules["repro.core.api"], "_run", run)
        with pytest.raises(ValueError, match="unknown cover mode 'optimal'"):
            decompose(example5, cover="optimal")

    def test_ghd_incomplete_on_request(self, example5):
        ghd = decompose(example5, complete=False)
        ghd.validate(example5)

    def test_adder_ghd(self):
        hypergraph = adder(3)
        ghd = decompose(hypergraph)
        ghd.validate(hypergraph)
        assert ghd.width() == 2

    def test_clique_ghd_width(self):
        hypergraph = clique_hypergraph(6)
        assert decompose(hypergraph).width() == 3


class TestDecisionApis:
    def test_is_treewidth_at_most(self):
        graph = grid_graph(3)  # tw 3
        from repro.core.api import is_treewidth_at_most

        assert is_treewidth_at_most(graph, 3) is True
        assert is_treewidth_at_most(graph, 2) is False
        assert is_treewidth_at_most(graph, 10) is True

    def test_is_ghw_at_most(self, example5):
        from repro.core.api import is_ghw_at_most

        assert is_ghw_at_most(example5, 2) is True
        assert is_ghw_at_most(example5, 1) is False

    def test_budget_exhaustion_returns_none_or_decides(self):
        from repro.core.api import is_treewidth_at_most
        from repro.instances.dimacs_like import queen_graph

        verdict = is_treewidth_at_most(queen_graph(6), 24, node_limit=3)
        assert verdict in (None, False)


class TestByComponents:
    def test_treewidth_by_components_flag(self):
        graph = grid_graph(3)
        graph.add_edge("iso1", "iso2")
        result = treewidth(graph, by_components=True)
        assert result.optimal and result.value == 3

    def test_ghw_by_components_flag(self):
        hypergraph = Hypergraph(
            {"ab": {1, 2}, "bc": {2, 3}, "ca": {1, 3}, "pq": {8, 9}}
        )
        result = generalized_hypertree_width(
            hypergraph, by_components=True
        )
        assert result.optimal and result.value == 2
