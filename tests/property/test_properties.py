"""Property-based tests (hypothesis) for the core invariants.

These encode the theorems and structural guarantees the whole system
rests on, checked on randomly generated graphs, hypergraphs and
permutations.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.ghw_lower import tw_ksc_width
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import min_fill_ordering
from repro.decompositions.elimination import (
    ordering_ghw,
    ordering_to_ghd,
    ordering_to_tree_decomposition,
    ordering_width,
)
from repro.decompositions.leaf_normal_form import extract_ordering
from repro.genetic.crossover import CROSSOVER_OPERATORS
from repro.genetic.mutation import MUTATION_OPERATORS
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.search.astar_ghw import astar_ghw
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import greedy_set_cover


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

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
            st.sets(
                st.sampled_from(vertices), min_size=size, max_size=size
            )
        )
        edges[f"e{i}"] = edge
        covered |= edge
    # ensure every vertex is covered (ghw undefined otherwise)
    missing = [v for v in vertices if v not in covered]
    if missing:
        edges["fill"] = set(missing)
    return Hypergraph(edges)


@st.composite
def graph_and_ordering(draw):
    graph = draw(graphs())
    ordering = draw(st.permutations(sorted(graph.vertices())))
    return graph, list(ordering)


# ----------------------------------------------------------------------
# graph / elimination invariants
# ----------------------------------------------------------------------

@given(graph_and_ordering())
@settings(max_examples=60, deadline=None)
def test_elimination_roundtrip_restores_graph(data):
    graph, ordering = data
    working = EliminationGraph(graph)
    for vertex in ordering:
        working.eliminate(vertex)
    working.restore_all()
    assert working.graph() == graph


@given(graph_and_ordering())
@settings(max_examples=60, deadline=None)
def test_bucket_elimination_yields_valid_tree_decomposition(data):
    graph, ordering = data
    decomposition = ordering_to_tree_decomposition(graph, ordering)
    decomposition.validate(graph)
    assert decomposition.width() == ordering_width(graph, ordering)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_lower_bound_below_min_fill_upper_bound(graph):
    lower = treewidth_lower_bound(graph)
    ordering = min_fill_ordering(graph, None)
    assert lower <= ordering_width(graph, ordering)


@given(graphs(max_vertices=7))
@settings(max_examples=30, deadline=None)
def test_exact_algorithms_agree(graph):
    astar = astar_treewidth(graph)
    bb = branch_and_bound_treewidth(graph)
    assert astar.optimal and bb.optimal
    assert astar.value == bb.value
    assert ordering_width(graph, astar.ordering) == astar.value


# ----------------------------------------------------------------------
# hypergraph / ghw invariants
# ----------------------------------------------------------------------

@given(hypergraphs())
@settings(max_examples=40, deadline=None)
def test_ghd_from_any_ordering_is_valid(hypergraph):
    ordering = sorted(hypergraph.vertices())
    for cover in ("greedy", "exact"):
        ghd = ordering_to_ghd(hypergraph, ordering, cover=cover)
        ghd.validate(hypergraph)


@given(hypergraphs())
@settings(max_examples=40, deadline=None)
def test_greedy_cover_at_least_exact(hypergraph):
    ordering = sorted(hypergraph.vertices())
    assert ordering_ghw(hypergraph, ordering, cover="greedy") >= ordering_ghw(
        hypergraph, ordering, cover="exact"
    )


@given(hypergraphs(max_vertices=7, max_edges=5))
@settings(max_examples=25, deadline=None)
def test_ghw_exact_algorithms_agree_and_bound_is_sound(hypergraph):
    bb = branch_and_bound_ghw(hypergraph)
    astar = astar_ghw(hypergraph)
    assert bb.optimal and astar.optimal
    assert bb.value == astar.value
    assert tw_ksc_width(hypergraph) <= bb.value


@given(hypergraphs(max_vertices=7, max_edges=5))
@settings(max_examples=25, deadline=None)
def test_theorem_2_extraction_never_worse(hypergraph):
    """Chapter 3: extracting an ordering from any GHD's tree gives a
    cover width no worse than that GHD's width."""
    ordering = sorted(hypergraph.vertices())
    ghd = ordering_to_ghd(hypergraph, ordering, cover="exact")
    extracted = extract_ordering(ghd.tree, hypergraph)
    assert (
        ordering_ghw(hypergraph, extracted, cover="exact") <= ghd.width()
    )


# ----------------------------------------------------------------------
# set cover invariants
# ----------------------------------------------------------------------

@given(
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.frozensets(st.integers(0, 8), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_exact_cover_never_larger_than_greedy(instance):
    universe = set()
    for edge in instance.values():
        universe |= edge
    greedy = len(greedy_set_cover(universe, instance))
    exact = len(exact_set_cover(universe, instance))
    assert 1 <= exact <= greedy


@given(
    st.data(),
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.frozensets(st.integers(0, 8), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_exact_cover_of_subsets_never_larger_than_greedy(data, instance):
    """The bag-covering case: targets are arbitrary coverable subsets."""
    universe = set()
    for edge in instance.values():
        universe |= edge
    target = data.draw(st.sets(st.sampled_from(sorted(universe))))
    greedy = len(greedy_set_cover(target, instance))
    exact = len(exact_set_cover(target, instance))
    assert exact <= greedy


# ----------------------------------------------------------------------
# genetic operator invariants
# ----------------------------------------------------------------------

@given(
    st.permutations(list(range(8))),
    st.permutations(list(range(8))),
    st.sampled_from(sorted(CROSSOVER_OPERATORS)),
    st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_crossover_produces_permutations(p1, p2, name, seed):
    operator = CROSSOVER_OPERATORS[name]
    c1, c2 = operator(list(p1), list(p2), random.Random(seed))
    assert sorted(c1) == sorted(p1)
    assert sorted(c2) == sorted(p1)


@given(
    st.permutations(list(range(8))),
    st.sampled_from(sorted(MUTATION_OPERATORS)),
    st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_mutation_produces_permutations(individual, name, seed):
    operator = MUTATION_OPERATORS[name]
    mutated = operator(list(individual), random.Random(seed))
    assert sorted(mutated) == sorted(individual)
