"""The fused minor-bound kernel must equal the pure-Python bounds exactly.

:mod:`repro.kernels.minor_bound` computes minor-min-width and
minor-gamma_R in one bitmask pass; with ``rng=None``
``treewidth_lower_bound`` routes both to it. The pure-Python functions
in :mod:`repro.bounds.lower` are the oracle: for every method subset the
kernel must return the same integer, on arbitrary vertex labels (ints
whose ``repr`` order differs from their value order, strings, tuples),
on degenerate graphs and on the mid-search states the exact searches
actually bound. The kernel keeps live vertices in per-degree bitmask
buckets and lets contracted vertices keep stale bits in the copied
masks; the bucket cases pin graphs on which reading a bucket's highest
bit, not stepping the minimum degree back after a contraction, reading
a neighbourhood without the live mask, or moving the shared neighbours
down from above the minimum bucket gives a different bound or no
bound at all.
"""

from __future__ import annotations

from functools import lru_cache

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.lower import minor_gamma_r, minor_min_width, treewidth_lower_bound
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph
from repro.instances.registry import instance
from repro.kernels.minor_bound import minor_lower_bound

SUBSETS = (
    ("minor-min-width",),
    ("minor-gamma-r",),
    ("minor-min-width", "minor-gamma-r"),
)

_ORACLE = {"minor-min-width": minor_min_width, "minor-gamma-r": minor_gamma_r}


def _oracle(graph: Graph, methods: tuple[str, ...]) -> int:
    if graph.num_vertices() == 0:
        return 0
    return max(_ORACLE[name](graph) for name in methods)


def _assert_kernel_matches(graph: Graph) -> None:
    before = graph.copy()
    for methods in SUBSETS:
        expected = _oracle(graph, methods)
        assert treewidth_lower_bound(graph, methods=methods, rng=None) == expected
        assert (
            minor_lower_bound(
                graph,
                min_width="minor-min-width" in methods,
                gamma_r="minor-gamma-r" in methods,
            )
            == expected
        )
    assert graph == before


LABELS = {
    # 8..20 straddles one digit and two: repr order puts 10 before 8
    "int": lambda i: 8 + i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"x{i}"),
}


@st.composite
def labelled_graphs(draw, max_vertices=12):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
    graph = Graph(vertices=vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
                graph.add_edge(vertices[i], vertices[j])
    return graph


@given(labelled_graphs())
@settings(max_examples=200, deadline=None)
def test_kernel_equals_pure_bounds(graph):
    _assert_kernel_matches(graph)


@pytest.mark.parametrize(
    "graph",
    [
        Graph(),
        Graph(vertices=[7]),
        Graph(vertices=["a", "b", "c"]),
        Graph(vertices=[10, 2, 30], edges=[(10, 2)]),
    ],
    ids=["empty", "single", "isolated", "edge-plus-isolated"],
)
def test_kernel_on_degenerate_graphs(graph):
    _assert_kernel_matches(graph)


@lru_cache(maxsize=None)
def _search_graph(name: str) -> Graph:
    built = instance(name)
    return built if isinstance(built, Graph) else built.primal_graph()


@given(
    name=st.sampled_from(("queen5_5", "myciel4", "b06")),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_on_mid_search_states(name, data):
    graph = _search_graph(name)
    order = data.draw(st.permutations(sorted(graph.vertices(), key=repr)))
    depth = data.draw(st.integers(min_value=0, max_value=len(order) - 1))
    working = EliminationGraph(graph)
    for vertex in order[:depth]:
        working.eliminate(vertex)
    snapshot = working.graph()
    _assert_kernel_matches(snapshot)
    # The searches hand over the live graph: its masks, not a re-interning.
    for methods in SUBSETS:
        assert treewidth_lower_bound(
            working, methods=methods, rng=None
        ) == _oracle(snapshot, methods)


#: name -> (vertex count, edges, methods): small graphs found by random
#: search on which a wrong bucket read changes the bound.
BUCKET_CASES = {
    # the minimum-degree vertex is the lowest bit of its bucket
    "min-degree-tie": (
        7,
        [(0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
         (2, 3), (2, 6), (3, 4), (3, 6), (5, 6)],
        ("minor-min-width",),
    ),
    # the partner is the lowest-index neighbour of minimum degree
    "partner-tie": (
        7,
        [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4),
         (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)],
        ("minor-min-width",),
    ),
    # contracting 0 into 2 leaves 2 isolated: the minimum falls to 0
    "step-back": (4, [(0, 2), (1, 3)], ("minor-gamma-r",)),
    # a contracted vertex keeps its stale bit in its neighbours' masks:
    # a neighbourhood read without the live mask counts it again
    "stale-bits": (5, [(0, 2), (0, 4), (1, 2), (3, 4)], ("minor-gamma-r",)),
    # the shared neighbour 2 has the minimum degree: the bucket-wise
    # move must start at the minimum's own bucket
    "shared-at-minimum": (3, [(0, 1), (0, 2), (1, 2)], ("minor-min-width",)),
}


@pytest.mark.parametrize("case", sorted(BUCKET_CASES))
def test_bucket_reads(case):
    n, edges, methods = BUCKET_CASES[case]
    graph = Graph(vertices=range(n), edges=edges)
    assert minor_lower_bound(
        graph,
        min_width="minor-min-width" in methods,
        gamma_r="minor-gamma-r" in methods,
    ) == _oracle(graph, methods)
    _assert_kernel_matches(graph)


def test_kernel_on_seeded_random_graphs():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(2, 10)
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        label = LABELS[rng.choice(sorted(LABELS))]
        vertices = [label(i) for i in range(n)]
        rng.shuffle(vertices)
        graph = Graph(vertices=vertices)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    graph.add_edge(vertices[i], vertices[j])
        _assert_kernel_matches(graph)
