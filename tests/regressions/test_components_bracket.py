"""Regression: a combined per-component run whose bounds met was not
certified.

``search.components`` combined the per-component results into a
``SearchResult`` built by hand, optimal only when every component was.
On ``grid6`` beside a ``K8`` at a one-node budget, grid6 stops at an open
bracket below 7 and ``K8`` certifies 7 at its root, so the combined
bracket is ``[7, 7]``: the width is 7 and the concatenated ordering
achieves it, yet the run reported ``optimal=False`` and ``value=None``.
It now applies the rule of a single search (``common.interrupted``):
bounds that meet certify the width.
"""

import pytest

from repro.core.api import generalized_hypertree_width, treewidth
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.registry import instance
from repro.verify.certify import certify_ghw_witness, certify_tw_witness


def _with_clique(graph_name: str, n: int):
    graph = instance(graph_name)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(("k", i), ("k", j))
    return graph


def _hypergraph_with_clique(name: str, n: int) -> Hypergraph:
    """``name`` beside a ``K_n`` of binary hyperedges (ghw ``ceil(n/2)``)."""
    hypergraph = instance(name)
    for i in range(n):
        for j in range(i + 1, n):
            hypergraph.add_edge(("k", i, j), [("k", i), ("k", j)])
    return hypergraph


@pytest.mark.parametrize("algorithm", ["astar", "bb"])
def test_tw_components_certify_when_bounds_meet(algorithm):
    graph = _with_clique("grid6", 8)
    alone = treewidth(instance("grid6"), algorithm=algorithm, node_limit=1)
    assert not alone.optimal and alone.upper_bound <= 7  # premise
    result = treewidth(
        graph, algorithm=algorithm, node_limit=1, by_components=True
    )
    assert (result.lower_bound, result.upper_bound) == (7, 7)
    assert result.optimal and result.value == 7
    assert certify_tw_witness(graph, result.ordering, 7).ok


@pytest.mark.parametrize("algorithm", ["astar", "bb"])
def test_ghw_components_certify_when_bounds_meet(algorithm):
    hypergraph = _hypergraph_with_clique("grid2d_4", 8)
    alone = generalized_hypertree_width(
        instance("grid2d_4"), algorithm=algorithm, node_limit=1
    )
    assert not alone.optimal and alone.upper_bound <= 4  # premise
    result = generalized_hypertree_width(
        hypergraph, algorithm=algorithm, node_limit=1, by_components=True
    )
    assert (result.lower_bound, result.upper_bound) == (4, 4)
    assert result.optimal and result.value == 4
    assert certify_ghw_witness(hypergraph, result.ordering, 4, strict=True).ok


def test_open_components_stay_open():
    # The widest piece's own bracket is open: the combined run is too.
    graph = _with_clique("grid6", 3)
    result = treewidth(graph, node_limit=1, by_components=True)
    assert result.lower_bound < result.upper_bound
    assert not result.optimal and result.value is None
