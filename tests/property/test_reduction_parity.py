"""The mask-native reductions and PR2 tests equal their set formulas.

:mod:`repro.reductions` decides simplicial / strongly almost simplicial
vertices and PR2 swap-safety on the adjacency masks of an
:class:`~repro.hypergraphs.elimination_graph.EliminationGraph`. The
oracles here are the textbook loops over
:meth:`Graph.is_simplicial`/:meth:`Graph.is_almost_simplicial` in
:func:`~repro.hypergraphs.graph.vertex_sort_key` order and the
neighbourhood-set formulas of swap-safety. Inputs cover ints whose
``repr`` order differs from their value order (so ranking by ``repr``
fails), strings, tuples, degenerate graphs and mid-search states of the
instances the exact searches run on, and distinct vertices that share
a ``repr``: PR2 prunes a swap-safe child whose ``repr`` equals the last
vertex's, so its prune mask must run to the end of that ``repr`` group.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex, vertex_sort_key
from repro.instances.registry import instance
from repro.reductions.pruning import (
    pr2_prune_children,
    swap_safe_ghw,
    swap_safe_treewidth,
)
from repro.reductions.simplicial import (
    find_reduction_vertex,
    find_simplicial,
    find_strongly_almost_simplicial,
)


def ref_simplicial(graph: Graph) -> Vertex | None:
    for vertex in sorted(graph.vertices(), key=vertex_sort_key):
        if graph.is_simplicial(vertex):
            return vertex
    return None


def ref_strongly_almost_simplicial(graph: Graph, lower_bound: int) -> Vertex | None:
    for vertex in sorted(graph.vertices(), key=vertex_sort_key):
        if graph.degree(vertex) > lower_bound or graph.is_simplicial(vertex):
            continue
        if graph.is_almost_simplicial(vertex):
            return vertex
    return None


def ref_reduction(graph: Graph, lower_bound: int, allow: bool) -> Vertex | None:
    simplicial = ref_simplicial(graph)
    if simplicial is not None or not allow:
        return simplicial
    return ref_strongly_almost_simplicial(graph, lower_bound)


def ref_swap_safe_treewidth(graph: Graph, v: Vertex, w: Vertex) -> bool:
    if not graph.has_edge(v, w):
        return True
    v_neighbours = graph.neighbours(v)
    w_neighbours = graph.neighbours(w)
    return bool(v_neighbours - w_neighbours - {w}) and bool(
        w_neighbours - v_neighbours - {v}
    )


def assert_parity(graph: Graph, working: EliminationGraph | None = None) -> None:
    """Every mask answer on ``working`` (default: ``graph`` interned)
    equals the reference on ``graph``, for every lower bound 0..n."""
    subjects = [graph, working if working is not None else EliminationGraph(graph)]
    n = graph.num_vertices()
    expected = ref_simplicial(graph)
    for subject in subjects:
        assert find_simplicial(subject) == expected
        for lower_bound in range(n + 1):
            assert find_strongly_almost_simplicial(
                subject, lower_bound
            ) == ref_strongly_almost_simplicial(graph, lower_bound)
            for allow in (True, False):
                assert find_reduction_vertex(
                    subject, lower_bound, allow_almost_simplicial=allow
                ) == ref_reduction(graph, lower_bound, allow)
    vertices = sorted(graph.vertices(), key=vertex_sort_key)
    masks = subjects[1]
    for v in vertices:
        for w in vertices:
            if v == w:
                continue
            assert swap_safe_treewidth(masks, v, w) == ref_swap_safe_treewidth(
                graph, v, w
            )
            assert swap_safe_ghw(masks, v, w) == (not graph.has_edge(v, w))
        children = [u for u in vertices if u != v]
        for swap_safe, reference in (
            (swap_safe_treewidth, ref_swap_safe_treewidth),
            (swap_safe_ghw, lambda g, a, b: not g.has_edge(a, b)),
        ):
            expected = [
                u
                for u in children
                if repr(u) > repr(v) or not reference(graph, u, v)
            ]
            for subject in subjects:
                assert (
                    pr2_prune_children(subject, v, children, swap_safe=swap_safe)
                    == expected
                )


class Twin(int):
    """An int vertex that shares its ``repr`` with the other twin of its
    pair. The reduction rules still rank twins apart, by value."""

    def __repr__(self) -> str:
        return f"t{int(self) // 2}"


LABELS = {
    # all >= 10, and repr order is not value order: "100" < "55"
    "int": lambda i: 10 + 45 * i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"x{i}"),
    # pairs of distinct vertices with one repr
    "twin": Twin,
}


@st.composite
def labelled_graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    density = draw(st.sampled_from((0.0, 0.3, 0.6, 0.85, 1.0)))
    graph = Graph(vertices=vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
                graph.add_edge(vertices[i], vertices[j])
    return graph


@given(labelled_graphs())
@settings(max_examples=150, deadline=None)
def test_mask_reductions_equal_reference(graph):
    assert_parity(graph)


@pytest.mark.parametrize(
    "graph",
    [
        Graph(),
        Graph(vertices=[7]),
        Graph(vertices=["a", "b", "c"]),
        Graph(vertices=[100, 55, 10], edges=[(55, 10), (10, 100)]),
        Graph(
            vertices=[100, 55, 10, 145],
            edges=[(55, 10), (10, 100), (100, 145), (145, 55)],
        ),
        # reprs t0 t0 t1 t1 t2: the t0 twins are not adjacent, the t1
        # twins are, and each has a neighbour the other lacks
        Graph(
            vertices=[Twin(i) for i in (1, 2, 0, 3, 4)],
            edges=[
                (Twin(2), Twin(3)), (Twin(2), Twin(0)),
                (Twin(3), Twin(1)), (Twin(3), Twin(4)),
            ],
        ),
    ],
    ids=["empty", "single", "isolated", "path-key-vs-repr", "cycle", "twins"],
)
def test_mask_reductions_on_small_graphs(graph):
    assert_parity(graph)


def test_reductions_rank_by_vertex_sort_key_not_repr():
    # Both endpoints are simplicial; numeric order picks 55, repr "100".
    graph = Graph(vertices=[100, 55, 10], edges=[(55, 10), (10, 100)])
    assert find_simplicial(graph) == 55
    assert find_reduction_vertex(EliminationGraph(graph), 0) == 55


@lru_cache(maxsize=None)
def _search_graph(name: str) -> Graph:
    built = instance(name)
    return built if isinstance(built, Graph) else built.primal_graph()


@given(
    name=st.sampled_from(("queen5_5", "myciel4", "b06")),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_mask_reductions_on_mid_search_states(name, data):
    graph = _search_graph(name)
    order = data.draw(st.permutations(sorted(graph.vertices(), key=repr)))
    depth = data.draw(st.integers(min_value=0, max_value=len(order)))
    working = EliminationGraph(graph)
    for vertex in order[:depth]:
        working.eliminate(vertex)
    assert_parity(working.graph(), working)
