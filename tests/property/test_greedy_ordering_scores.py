"""Min-fill and min-degree with kept scores replay the rescoring loop.

:func:`repro.bounds.upper.min_fill_ordering` and
:func:`~repro.bounds.upper.min_degree_ordering` keep one score per vertex
and, after each elimination, rescore only the eliminated vertex's
neighbours and, when fill edges were added, their neighbours.
:func:`tests.reference.reference_greedy_ordering` rescores every
remaining vertex at every step. The root incumbents of the exact
searches and the seed orderings of the heuristics are built from these
orderings, so both must give the same ordering and leave ``rng`` in the
same state: the candidates are scanned in the same ``vertices()`` order
and the ties go through the same draw.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.hypergraphs.graph import Graph
from repro.instances.registry import instance
from tests.reference import reference_greedy_ordering

HEURISTICS = {
    "min-fill": (min_fill_ordering, lambda working, v: working.fill_in(v)),
    "min-degree": (min_degree_ordering, lambda working, v: working.degree(v)),
}

LABELS = {
    # ints >= 10 whose repr order differs from their value order
    "int": lambda i: 10 + 11 * i,
    "str": lambda i: f"v{i}",
}


@st.composite
def graphs(draw):
    """Random graphs of 0-24 vertices at a drawn edge density."""
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    n = draw(st.integers(min_value=0, max_value=24))
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    coin = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph = Graph(vertices=vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if coin.random() < density:
                graph.add_edge(vertices[i], vertices[j])
    return graph


def _assert_same(heuristic: str, graph: Graph, seed: int | None) -> None:
    build, score = HEURISTICS[heuristic]
    rng = None if seed is None else random.Random(seed)
    oracle_rng = None if seed is None else random.Random(seed)
    assert build(graph, rng) == reference_greedy_ordering(graph, score, oracle_rng)
    if seed is not None:
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
@given(graph=graphs(), seed=st.one_of(st.none(), st.integers(0, 999)))
@settings(max_examples=200, deadline=None)
def test_orderings_and_random_stream_match(heuristic, graph, seed):
    _assert_same(heuristic, graph, seed)


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
def test_thesis_instances_match(heuristic):
    """Fill-heavy primal graphs, with and without ``rng``."""
    for name in ("b06", "adder_8", "queen5_5", "myciel4", "grid2d_5"):
        graph = instance(name)
        primal = graph.primal_graph() if hasattr(graph, "primal_graph") else graph
        for seed in (None, 3):
            _assert_same(heuristic, primal, seed)
