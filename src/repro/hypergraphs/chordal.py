"""Chordal graphs and perfect elimination orderings.

The width machinery leans on chordality in two places the thesis makes
explicit: the fast GA evaluation (Figure 6.2) is a modification of the
classic linear-time *perfect elimination ordering* test (Golumbic [25]),
and an ordering is width-optimal exactly when the fill-in it produces
triangulates the graph no worse than necessary. This module provides
the classical toolkit:

* :func:`is_perfect_elimination_ordering` — does an ordering produce no
  fill at all?
* :func:`is_chordal` — via maximum cardinality search + the PEO test;
* :func:`fill_in_graph` — the triangulation an ordering induces;
* :func:`maximum_clique_of_chordal` — read the clique number (hence the
  treewidth + 1) off a perfect elimination ordering.

On chordal graphs every ordering-based algorithm in the library should
return ``clique number - 1`` exactly; the tests enforce that.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bounds.upper import max_cardinality_ordering
from repro.hypergraphs.graph import Graph, Vertex


def is_perfect_elimination_ordering(
    graph: Graph, ordering: Sequence[Vertex]
) -> bool:
    """True iff eliminating along ``ordering`` adds no fill edge.

    Golumbic's O(|V| + |E|) test: for each vertex, its later neighbours
    must all be adjacent to the *first* of them (checking against the
    first suffices — transitivity does the rest).
    """
    position = {vertex: i for i, vertex in enumerate(ordering)}
    if len(position) != graph.num_vertices() or set(position) != graph.vertices():
        raise ValueError("ordering is not a permutation of the vertices")
    for vertex in ordering:
        later = [
            neighbour
            for neighbour in graph.neighbours(vertex)
            if position[neighbour] > position[vertex]
        ]
        if not later:
            continue
        anchor = min(later, key=position.__getitem__)
        for other in later:
            if other != anchor and not graph.has_edge(anchor, other):
                return False
    return True


def is_chordal(graph: Graph) -> bool:
    """Chordality test: MCS yields a PEO iff the graph is chordal."""
    if graph.num_vertices() == 0:
        return True
    ordering = max_cardinality_ordering(graph, None)
    return is_perfect_elimination_ordering(graph, ordering)


def fill_in_graph(graph: Graph, ordering: Sequence[Vertex]) -> Graph:
    """The triangulation of ``graph`` induced by ``ordering``.

    Returns a chordal supergraph: the original edges plus every fill
    edge elimination inserts. ``ordering`` is a perfect elimination
    ordering of the result.
    """
    from repro.hypergraphs.elimination_graph import EliminationGraph, bits_of

    working = EliminationGraph(graph)
    labels = working.labels
    filled = graph.copy()
    for vertex in ordering:
        filled.add_clique({labels[u] for u in bits_of(working.eliminate(vertex))})
    return filled


def maximum_clique_of_chordal(graph: Graph) -> set[Vertex]:
    """A maximum clique of a chordal graph (raises on non-chordal input).

    Along a perfect elimination ordering each vertex's closed later
    neighbourhood is a clique, and some such set is maximum.
    """
    if graph.num_vertices() == 0:
        return set()
    ordering = max_cardinality_ordering(graph, None)
    if not is_perfect_elimination_ordering(graph, ordering):
        raise ValueError("graph is not chordal")
    position = {vertex: i for i, vertex in enumerate(ordering)}
    best: set[Vertex] = set()
    for vertex in ordering:
        candidate = {vertex} | {
            neighbour
            for neighbour in graph.neighbours(vertex)
            if position[neighbour] > position[vertex]
        }
        if len(candidate) > len(best):
            best = candidate
    return best


def treewidth_of_chordal(graph: Graph) -> int:
    """``clique number - 1``: the exact treewidth of a chordal graph."""
    if graph.num_vertices() == 0:
        return 0
    return len(maximum_clique_of_chordal(graph)) - 1
