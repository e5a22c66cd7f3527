"""Lazy A* expands the states eager A* expanded, in the same order.

The driver's A* evaluates a child only when it is popped and re-pushes
it when its bound raises its key; DESIGN.md argues that this expands the
same states in the same order as evaluating every child at push time.
The oracle files that check the certified widths cannot see a lazy A*
that expands a raised child at once instead of re-pushing it: its widths
stay right on small instances. These tests log the prefix of every state
that reaches ``finish`` (the goal test each expansion runs) and hold
:func:`repro.search.driver.astar` to
:func:`tests.reference.reference_eager_astar`, the eager loop over the
same ``Measure`` hooks, on seeded random graphs and hypergraphs for
every ``(use_pr2, use_reductions)`` pair, with and without node budgets.
The instances are larger than the width-oracle files' (12-18 vertices):
on smaller ones A* expands a handful of states and a raised key seldom
has another entry to overtake.

Two things that are not the order of evaluation are held equal in both
runs, so that expansions depend on the state alone:

* A*-tw forces almost-simplicial vertices up to a threshold the driver
  reads from its anytime lower bound, which the lazy loop reads later
  than the eager one (DESIGN.md). The wrapper pins the threshold to the
  root lower bound, a sound one.
* A*'s children are listed in the order of ``working.vertices()``, a set
  whose iteration order can follow the elimination graph's undo history
  when labels collide in the set's table (string labels under some hash
  seeds): lazy and eager evaluation restore vertices in different
  orders, so siblings with equal keys may tie differently. The driver
  sees the graph through a view that lists vertices in index order.
"""

from __future__ import annotations

import random

import pytest

from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import GhwMeasure
from repro.search.bb_tw import TreewidthMeasure
from repro.search.driver import astar
from tests.property import test_tw_duplicate_detection as duplicate_detection
from tests.reference import reference_eager_astar

COMBINATIONS = [(True, True), (True, False), (False, True), (False, False)]
LB_METHODS = ("minor-min-width", "minor-gamma-r")
#: A*-ghw on these hypergraphs may take minutes to certify.
GHW_NODE_LIMIT = 300


def _labels(seed: int, rng: random.Random, n: int) -> list:
    """Odd seeds label vertices by int, even seeds by str, so the ``repr``
    tie order varies."""
    if seed % 2:
        return list(range(n))
    return [f"v{rng.randint(0, 99)}_{i}" for i in range(n)]


def random_graph(seed: int) -> Graph:
    """14-18 vertices at edge density 0.2-0.7."""
    rng = random.Random(seed)
    n = rng.randint(14, 18)
    density = rng.uniform(0.2, 0.7)
    labels = _labels(seed, rng, n)
    graph = Graph(vertices=labels)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                graph.add_edge(labels[i], labels[j])
    return graph


def random_hypergraph(seed: int) -> Hypergraph:
    """12-18 vertices in ``n`` to ``n + 8`` edges of 2-4 vertices; a
    vertex left in no edge gets an edge with one other vertex."""
    rng = random.Random(seed)
    n = rng.randint(12, 18)
    labels = _labels(seed, rng, n)
    hypergraph = Hypergraph(vertices=labels)
    for j in range(rng.randint(n, n + 8)):
        hypergraph.add_edge(f"e{j}", rng.sample(labels, rng.choice((2, 2, 3, 3, 4))))
    covered = set().union(*hypergraph.edge_sets())
    for j, vertex in enumerate(v for v in labels if v not in covered):
        other = rng.choice([u for u in labels if u != vertex])
        hypergraph.add_edge(f"f{j}", [vertex, other])
    return hypergraph


class IndexOrder:
    """An elimination graph whose ``vertices()`` come in index order."""

    def __init__(self, graph) -> None:
        self._graph = graph

    def __getattr__(self, name):
        return getattr(self._graph, name)

    def vertices(self) -> list:
        return sorted(self._graph.vertices(), key=self._graph.index.__getitem__)


class LoggedMeasure:
    """A measure that logs the prefix of each state ``finish`` sees,
    forces at the root lower bound and shows the driver its graph in
    index order."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.dedup = inner.dedup
        self.working = IndexOrder(inner.working)
        self.span_attrs = inner.span_attrs
        self.low = 0
        self.log: list[tuple] = []

    def root_bounds(self, rng):
        lb, ub, ordering = self.inner.root_bounds(rng)
        self.low = lb
        return lb, ub, ordering

    def reduce(self, low):
        return self.inner.reduce(self.low)

    def bag_cost(self, child, g=None, limit=None):
        return self.inner.bag_cost(child, g, limit)

    def lower(self):
        return self.inner.lower()

    def finish(self, g, below):
        self.log.append(tuple(self.working.eliminated()))
        return self.inner.finish(g, below)

    def pr2(self, child, grandchildren):
        return self.inner.pr2(child, grandchildren)


def _outcome(result) -> tuple:
    return (
        result.lower_bound,
        result.upper_bound,
        result.optimal,
        result.nodes_expanded,
        list(result.ordering),
    )


def _compare(build, use_pr2: bool, node_limit: int | None = None) -> None:
    """Run both searches at ``node_limit``, then at one node and at half
    the nodes the first run expanded."""
    limits = [node_limit, 1]
    for limit in limits:
        lazy, eager = LoggedMeasure(build()), LoggedMeasure(build())
        lazy_result = astar(lazy, node_limit=limit, use_pr2=use_pr2)
        eager_result = reference_eager_astar(
            eager, node_limit=limit, use_pr2=use_pr2
        )
        assert lazy.log == eager.log, limit
        assert _outcome(lazy_result) == _outcome(eager_result), limit
        if len(limits) == 2:
            limits.append(max(1, lazy_result.nodes_expanded // 2))


def test_budget_runs_out_on_pending_children_only():
    """At one node, A*-tw's heap holds only pending children that
    evaluation drops: the search must empty it and certify, as eager
    evaluation does, rather than stop on the spent budget."""
    graph = duplicate_detection.random_graph(17)
    result = astar_treewidth(graph, node_limit=1)
    eager = reference_eager_astar(
        TreewidthMeasure(graph, LB_METHODS, True), node_limit=1
    )
    assert eager.optimal and eager.value == 5
    assert _outcome(result) == _outcome(eager)


@pytest.mark.parametrize("seed", range(30))
def test_astar_tw_expands_in_eager_order(seed):
    graph = random_graph(seed)
    for use_pr2, use_reductions in COMBINATIONS:
        _compare(
            lambda: TreewidthMeasure(graph, LB_METHODS, use_reductions),
            use_pr2,
        )


@pytest.mark.parametrize("seed", range(40))
def test_astar_ghw_expands_in_eager_order(seed):
    hypergraph = random_hypergraph(seed)
    for use_pr2, use_reductions in COMBINATIONS:
        _compare(
            lambda: GhwMeasure(hypergraph, LB_METHODS, use_reductions),
            use_pr2,
            GHW_NODE_LIMIT,
        )
