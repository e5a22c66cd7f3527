"""Upper-bound ordering heuristics for treewidth (Section 4.4.2).

Each heuristic greedily builds an elimination ordering; evaluating the
ordering with :func:`repro.decompositions.elimination.ordering_width`
yields an upper bound on the treewidth. The min-fill heuristic is what
QuickBB and the thesis's A*-tw use for their initial ``ub``; min-degree,
min-width and maximum-cardinality search are classic alternatives kept
for comparison and for seeding genetic populations.

All heuristics accept an optional ``rng`` for random tie-breaking (the
thesis breaks ties randomly and reports the best of several runs);
without one, ties break deterministically on ``repr`` of the vertex.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.decompositions.elimination import ordering_width
from repro.hypergraphs.elimination_graph import EliminationGraph, bits_of
from repro.hypergraphs.graph import Graph, Vertex


def _pick(
    candidates: list[Vertex],
    rng: random.Random | None,
) -> Vertex:
    if rng is None:
        return min(candidates, key=repr)
    return rng.choice(candidates)


def _greedy_ordering(
    graph: Graph,
    score: Callable[[EliminationGraph, Vertex], int],
    rng: random.Random | None,
) -> list[Vertex]:
    """Repeatedly eliminate a vertex minimising ``score``.

    ``score(working, v)`` may read only ``v``'s neighbours and the edges
    among them (its degree, its fill-in), so scores are kept per vertex:
    eliminating ``x`` changes only those of ``x``'s neighbours and, when
    fill edges were added, those of the vertices next to a fill edge,
    which are neighbours of ``x``'s neighbours (a fill edge joins two of
    them). Candidates are scanned in ``working.vertices()`` order, so
    ties and ``rng`` draws are those of rescoring every vertex at every
    step.
    """
    working = EliminationGraph(graph)
    masks, labels = working.masks, working.labels
    scores = {vertex: score(working, vertex) for vertex in working.vertices()}
    ordering: list[Vertex] = []
    while scores:
        best_score: int | None = None
        best: list[Vertex] = []
        for vertex in working.vertices():
            value = scores[vertex]
            if best_score is None or value < best_score:
                best_score = value
                best = [vertex]
            elif value == best_score:
                best.append(vertex)
        choice = _pick(best, rng)
        del scores[choice]
        stale = masks[working.index[choice]]
        if working.fill_in(choice):
            for u in bits_of(stale):
                stale |= masks[u]
        working.eliminate(choice)
        ordering.append(choice)
        for u in bits_of(stale & working.alive):
            scores[labels[u]] = score(working, labels[u])
    return ordering


def min_fill_ordering(
    graph: Graph, rng: random.Random | None = None
) -> list[Vertex]:
    """Eliminate the vertex adding the fewest fill-in edges first."""
    return _greedy_ordering(
        graph, lambda working, v: working.fill_in(v), rng
    )


def min_degree_ordering(
    graph: Graph, rng: random.Random | None = None
) -> list[Vertex]:
    """Eliminate a minimum-degree vertex first."""
    return _greedy_ordering(graph, lambda working, v: working.degree(v), rng)


def min_width_ordering(
    graph: Graph, rng: random.Random | None = None
) -> list[Vertex]:
    """Min-width: repeatedly *remove* (no fill) a minimum-degree vertex.

    The removal order is returned as an elimination ordering; evaluating
    it performs proper elimination, so the resulting width may exceed the
    degrees observed during construction.
    """
    working = graph.copy()
    ordering: list[Vertex] = []
    while working.num_vertices() > 0:
        choice = _pick(working.min_degree_vertices()[1], rng)
        working.remove_vertex(choice)
        ordering.append(choice)
    return ordering


def max_cardinality_ordering(
    graph: Graph, rng: random.Random | None = None
) -> list[Vertex]:
    """Maximum cardinality search (MCS) elimination ordering.

    MCS numbers vertices n..1 by repeatedly picking the vertex with the
    most already-numbered neighbours; eliminating in increasing number
    order is the associated elimination ordering, so the vertex picked
    *first* by MCS is eliminated *last*.
    """
    weights: dict[Vertex, int] = {vertex: 0 for vertex in graph}
    reverse: list[Vertex] = []
    remaining = graph.vertices()
    while remaining:
        highest = max(weights[v] for v in remaining)
        candidates = [v for v in remaining if weights[v] == highest]
        choice = _pick(candidates, rng)
        reverse.append(choice)
        remaining.discard(choice)
        for neighbour in graph.neighbours(choice):
            if neighbour in remaining:
                weights[neighbour] += 1
    reverse.reverse()
    return reverse


_HEURISTICS: dict[str, Callable[[Graph, random.Random | None], list[Vertex]]] = {
    "min-fill": min_fill_ordering,
    "min-degree": min_degree_ordering,
    "min-width": min_width_ordering,
    "mcs": max_cardinality_ordering,
}


def heuristic_names() -> list[str]:
    return list(_HEURISTICS)


def upper_bound_ordering(
    graph: Graph,
    heuristic: str = "min-fill",
    rng: random.Random | None = None,
) -> tuple[int, list[Vertex]]:
    """Run ``heuristic`` and return ``(width, ordering)``."""
    try:
        build = _HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {heuristic!r}; choose from {heuristic_names()}"
        ) from None
    ordering = build(graph, rng)
    return ordering_width(graph, ordering), ordering


def treewidth_upper_bound(
    graph: Graph,
    heuristic: str = "min-fill",
    rng: random.Random | None = None,
    restarts: int = 1,
) -> int:
    """Best width over ``restarts`` runs of ``heuristic``."""
    best = graph.num_vertices()
    for _ in range(max(1, restarts)):
        width, _ordering = upper_bound_ordering(graph, heuristic, rng)
        best = min(best, width)
    return best
