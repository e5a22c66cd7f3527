"""The seeded minor bounds replay their frozen per-vertex versions.

Every exact search calls :func:`repro.bounds.lower.minor_min_width` and
:func:`repro.bounds.lower.minor_gamma_r` once at its root with the
run's ``rng``. They read degree minima and neighbour candidates through
:class:`~repro.hypergraphs.graph.Graph` helpers, contract with inline
set operations, and evaluate gamma_R only as far as it could raise the
running bound. :mod:`tests.reference` keeps the versions that made one
method call per vertex and sorted every minor by ``(degree, repr)``.
Both must return the same value *and* leave ``rng.getstate()`` equal:
the draws pick from lists in set iteration order, which follows each
set's own add/discard history, so graphs built with vertex removals
(whose sets hold dummy slots) are in every family.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.lower import degeneracy, gamma_r, minor_gamma_r, minor_min_width
from repro.hypergraphs.graph import Graph, complete_graph
from tests.reference import (
    reference_degeneracy,
    reference_gamma_r,
    reference_minor_gamma_r,
    reference_minor_min_width,
)

LABELS = {
    # ints whose repr order differs from their value order (109 < 21)
    "int": lambda i: 10 + 11 * i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"x{i}"),
}

PAIRS = [
    pytest.param(minor_min_width, reference_minor_min_width, id="minor-min-width"),
    pytest.param(minor_gamma_r, reference_minor_gamma_r, id="minor-gamma-r"),
]


@st.composite
def graphs(draw):
    """Graphs with isolated vertices, dense and sparse parts, and
    vertices (with their edges) removed after the fact."""
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    n = draw(st.integers(min_value=0, max_value=16))
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    graph = Graph(vertices=vertices)
    density = draw(st.sampled_from((0.15, 0.4, 0.75, 1.0)))
    build = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if build.random() < density:
                graph.add_edge(u, v)
    for vertex in draw(st.lists(st.sampled_from(vertices or [None]), max_size=4)):
        if vertex is not None and vertex in graph:
            graph.remove_vertex(vertex)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        live = list(graph)
        if len(live) >= 2:
            u, v = build.sample(live, 2)
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
    return graph


def _replay(bound, graph: Graph, seed: int | None):
    rng = None if seed is None else random.Random(seed)
    value = bound(graph, rng)
    return value, None if rng is None else rng.getstate()


@pytest.mark.parametrize("bound, reference", PAIRS)
@given(graphs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_seeded_bound_replays_the_reference(bound, reference, graph, seed):
    before = graph.copy()
    for draw_seed in (seed, None):
        assert _replay(bound, graph, draw_seed) == _replay(reference, graph, draw_seed)
    assert graph == before


@given(graphs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_degeneracy_and_gamma_r_replay_the_reference(graph, seed):
    assert _replay(degeneracy, graph, seed) == _replay(reference_degeneracy, graph, seed)
    assert gamma_r(graph) == reference_gamma_r(graph)
    for floor in range(-1, graph.num_vertices() + 1):
        assert graph.gamma_r(floor) == max(floor, reference_gamma_r(graph))


def _old_contract(graph: Graph, u, v) -> None:
    """``Graph.contract`` as it was: ``add_edge`` per neighbour of ``v``,
    then ``remove_vertex(v)``."""
    for neighbour in graph._adj[v]:
        if neighbour != u:
            graph.add_edge(u, neighbour)
    graph.remove_vertex(v)


@given(graphs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_contraction_keeps_every_set_history(graph, seed):
    """Contracting down to nothing leaves every adjacency set iterating
    in the order the old ``add_edge``/``remove_vertex`` sequence left it."""
    new, old = graph.copy(), graph.copy()
    build = random.Random(seed)
    while new.num_vertices() > 0:
        vertex = build.choice(sorted(new, key=repr))
        neighbours = sorted(new.neighbours(vertex), key=repr)
        if neighbours:
            partner = build.choice(neighbours)
            new.contract(partner, vertex)
            _old_contract(old, partner, vertex)
        else:
            new.remove_vertex(vertex)
            old.remove_vertex(vertex)
        assert list(new) == list(old)
        assert all(list(new._adj[v]) == list(old._adj[v]) for v in new)


@pytest.mark.parametrize("kind", sorted(LABELS))
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_complete_and_edgeless_graphs(kind, n):
    label = LABELS[kind]
    complete = Graph(vertices=[label(i) for i in range(n)])
    complete.add_clique(list(complete))
    edgeless = Graph(vertices=[label(i) for i in range(n)])
    for graph in (complete, edgeless):
        for seed in (0, 1, None):
            for bound, reference in ((minor_min_width, reference_minor_min_width),
                                     (minor_gamma_r, reference_minor_gamma_r)):
                assert _replay(bound, graph, seed) == _replay(reference, graph, seed)
        assert gamma_r(graph) == reference_gamma_r(graph)
    assert gamma_r(complete) == max(n - 1, 0)
    assert gamma_r(complete_graph(n)) == max(n - 1, 0)


def test_min_degree_neighbours_read_a_copy():
    """Candidates come in the order of a fresh copy of the neighbourhood,
    which is what ``Graph.neighbours`` iterates and ``rng.choice`` sees;
    here that order differs from the live set's."""
    build = random.Random(0)
    values = build.sample(range(1, 5000), 28)
    graph = Graph(vertices=[0, *values])
    for v in values:
        graph.add_edge(0, v)
    for v in build.sample(values, 14):
        graph.remove_edge(0, v)  # dummy slots in vertex 0's set
    assert list(graph._adj[0]) != list(graph.neighbours(0))
    assert graph.min_degree_neighbours(0) == list(graph.neighbours(0))
    lowest, candidates = graph.min_degree_vertices()
    assert lowest == 0
    assert candidates == [v for v in graph if graph.degree(v) == 0]
