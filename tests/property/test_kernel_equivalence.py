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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompositions.elimination import ordering_ghw, ordering_width
from repro.hypergraphs.graph import Graph, complete_graph, path_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph, bits_of
from repro.kernels.elimination import bit_elimination_bags, bit_ordering_width
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


# The kernel finds each clique's successor (its member eliminated first)
# by a galloping bisection over prefix masks of the ordering, and pushes
# a two-member clique onto both members. These cases put the successor
# at either end of the range, push pairs either way round, give empty
# and one-member cliques, and run past 64 vertices, where the prefix
# masks span several digits.


def _assert_kernel_bags_match_the_oracle(graph: Graph, ordering: list) -> None:
    bg = BitGraph.from_graph(graph)
    order = bg.order_of(ordering)
    expected = reference_elimination_bags(graph, ordering)
    bags = bit_elimination_bags(bg, order)
    assert [bg.vertices_of(mask) for mask in bags] == [
        expected[v] for v in ordering
    ]
    width = max((len(bag) - 1 for bag in expected.values()), default=0)
    assert bit_ordering_width(bg, order) == width
    assert reference_ordering_width(graph, ordering) == width


def test_successor_right_after_the_vertex():
    # Eliminating a hub first hands its whole neighbourhood to the very
    # next position; in a complete graph that holds at every position.
    hub = Graph(vertices=range(8), edges=[(0, v) for v in range(1, 8)])
    _assert_kernel_bags_match_the_oracle(hub, list(range(8)))
    _assert_kernel_bags_match_the_oracle(hub, [0, 5, 2, 7, 1, 3, 6, 4])
    clique = complete_graph(7)
    _assert_kernel_bags_match_the_oracle(clique, [3, 0, 6, 1, 5, 2, 4])


def test_successor_at_the_end_of_the_ordering():
    # Leaves of a star eliminated before the centre: one-member cliques
    # whose successor is the last position. A vertex adjacent to the
    # last three alone sends the search out past the end, to ``n``.
    star = Graph(vertices=range(6), edges=[(5, v) for v in range(5)])
    _assert_kernel_bags_match_the_oracle(star, [0, 1, 2, 3, 4, 5])
    late = Graph(
        vertices=range(7),
        edges=[(0, 4), (0, 5), (0, 6), (1, 2), (2, 3), (4, 5)],
    )
    _assert_kernel_bags_match_the_oracle(late, [0, 1, 2, 3, 4, 5, 6])
    _assert_kernel_bags_match_the_oracle(late, [1, 0, 2, 3, 6, 4, 5])


def test_two_member_cliques_either_way_round():
    # A two-member clique is pushed onto both members; the copy on the
    # one eliminated later must drop out, whichever bit is lower.
    graph = Graph(vertices=range(5), edges=[(0, 1), (0, 3), (2, 4), (1, 2)])
    for ordering in ([0, 3, 1, 2, 4], [0, 1, 3, 2, 4], [2, 0, 4, 3, 1]):
        _assert_kernel_bags_match_the_oracle(graph, ordering)


def test_isolated_vertices_give_empty_cliques():
    graph = Graph(vertices=range(7), edges=[(1, 4), (4, 6), (1, 6)])
    for ordering in ([0, 1, 2, 3, 4, 5, 6], [6, 5, 0, 4, 3, 1, 2]):
        _assert_kernel_bags_match_the_oracle(graph, ordering)
    _assert_kernel_bags_match_the_oracle(Graph(vertices=range(4)), [2, 0, 3, 1])


@pytest.mark.parametrize(
    "graph",
    [
        Graph(vertices=[0]),
        Graph(vertices=[0, 1]),
        Graph(vertices=[0, 1], edges=[(0, 1)]),
    ],
    ids=["one", "two-apart", "two-joined"],
)
def test_one_and_two_vertices(graph):
    vertices = sorted(graph.vertices())
    _assert_kernel_bags_match_the_oracle(graph, vertices)
    _assert_kernel_bags_match_the_oracle(graph, vertices[::-1])


@given(
    st.integers(min_value=65, max_value=150),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_more_than_64_vertices(n, density, seed):
    build = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if build.random() < density
    ]
    graph = Graph(vertices=range(n), edges=edges)
    ordering = list(range(n))
    build.shuffle(ordering)
    _assert_kernel_bags_match_the_oracle(graph, ordering)


def test_long_path_in_a_random_order():
    # Cliques of one or two members whose pushes cross digit boundaries.
    graph = path_graph(200)
    ordering = sorted(graph.vertices())
    random.Random(7).shuffle(ordering)
    _assert_kernel_bags_match_the_oracle(graph, ordering)


@pytest.mark.parametrize(
    "order", [[0, 1], [0, 1, 1], [0, 1, 2, 2], [2, 0, 1, 3], [0, 1, -1]]
)
def test_kernel_rejects_a_non_permutation(order):
    bg = BitGraph.from_graph(path_graph(3))
    with pytest.raises(ValueError):
        bit_elimination_bags(bg, order)
    with pytest.raises(ValueError):
        bit_ordering_width(bg, order)
