"""The bitset kernel must agree with the pure-Python oracle exactly.

The kernel (:mod:`repro.kernels`) runs bucket elimination and set
covering on interned bitmasks, and :func:`ordering_width` /
:func:`ordering_ghw` run on it; the pure-Python implementations live in
:mod:`tests.reference` as the oracle. On every
deterministic path the kernel must return *identical* values — not
merely consistent bounds — because the greedy cover reproduces the
oracle's tie-break (smallest edge name by ``repr``) and exact covers are
canonical by definition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompositions.elimination import ordering_ghw, ordering_width
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph, bits_of
from tests.reference import (
    ReferenceExactSetCoverSolver,
    reference_elimination_bags,
    reference_greedy_set_cover,
    reference_ordering_width,
)


def _oracle_ghw(hypergraph: Hypergraph, ordering: list, cover: str) -> int:
    """Definition 17 on the oracle's bags, greedy or exact covers."""
    edges = hypergraph.edges()
    bags = reference_elimination_bags(hypergraph.primal_graph(), ordering)
    if cover == "exact":
        solver = ReferenceExactSetCoverSolver(edges)
        return max((solver.cover_size(bag) for bag in bags.values()), default=0)
    return max(
        (len(reference_greedy_set_cover(bag, edges)) for bag in bags.values()),
        default=0,
    )


@st.composite
def graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    return Graph(vertices=range(n), edges=edges)


@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=6):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    vertices = list(range(n))
    edges = {}
    covered = set()
    for i in range(m):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        edge = draw(
            st.sets(st.sampled_from(vertices), min_size=size, max_size=size)
        )
        edges[f"e{i}"] = edge
        covered |= edge
    missing = [v for v in vertices if v not in covered]
    if missing:
        edges["fill"] = set(missing)
    return Hypergraph(edges)


@st.composite
def graph_and_ordering(draw):
    graph = draw(graphs())
    ordering = draw(st.permutations(sorted(graph.vertices())))
    return graph, list(ordering)


@st.composite
def hypergraph_and_ordering(draw):
    hypergraph = draw(hypergraphs())
    ordering = draw(st.permutations(sorted(hypergraph.vertices())))
    return hypergraph, list(ordering)


@given(graph_and_ordering())
@settings(max_examples=120, deadline=None)
def test_ordering_width_backends_agree(case):
    graph, ordering = case
    bags = reference_elimination_bags(graph, ordering)
    oracle = max((len(bag) - 1 for bag in bags.values()), default=0)
    assert reference_ordering_width(graph, ordering) == oracle
    assert ordering_width(graph, ordering) == oracle


@given(hypergraph_and_ordering())
@settings(max_examples=120, deadline=None)
def test_ordering_ghw_greedy_backends_agree(case):
    hypergraph, ordering = case
    oracle = _oracle_ghw(hypergraph, ordering, "greedy")
    assert ordering_ghw(hypergraph, ordering, cover="greedy") == oracle


@given(hypergraph_and_ordering())
@settings(max_examples=60, deadline=None)
def test_ordering_ghw_exact_backends_agree(case):
    hypergraph, ordering = case
    oracle = _oracle_ghw(hypergraph, ordering, "exact")
    assert ordering_ghw(hypergraph, ordering, cover="exact") == oracle


@given(hypergraphs())
@settings(max_examples=80, deadline=None)
def test_bithypergraph_round_trip(hypergraph):
    bh = BitHypergraph.from_hypergraph(hypergraph)
    back = bh.to_hypergraph()
    assert back.edges() == hypergraph.edges()
    assert back.vertices() == hypergraph.vertices()
    # masks decode to exactly the original edge memberships
    for name, edge in hypergraph.edges().items():
        mask = bh.edge_masks[bh.edge_names.index(name)]
        assert set(bh.vertices_of(mask)) == set(edge)


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_bitgraph_round_trip(graph):
    bg = BitGraph.from_graph(graph)
    back = bg.to_graph()
    assert back.vertices() == graph.vertices()
    for vertex in graph.vertices():
        assert set(back.neighbours(vertex)) == set(graph.neighbours(vertex))
    # neighbour masks are symmetric and irreflexive
    for i, mask in enumerate(bg.nbr_masks):
        assert not mask & (1 << i)
        for j in bits_of(mask):
            assert bg.nbr_masks[j] & (1 << i)
