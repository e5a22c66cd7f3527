"""One bitmask pass for the minor-based treewidth lower bounds.

:func:`~repro.bounds.lower.minor_min_width` (Figure 4.7) and
:func:`~repro.bounds.lower.minor_gamma_r` (Figure 4.8) both contract a
minimum-degree vertex into its minimum-degree neighbour until the graph
is gone. With deterministic tie-breaking (``rng=None``) they walk the
*same* contraction sequence, so one walk can record both bounds: the
minimum degree (MMW) and Ramachandramurthi's gamma_R of every minor.

The walk reads the adjacency masks of an
:class:`~repro.hypergraphs.elimination_graph.EliminationGraph`, which
interns vertices once, ranked by ``repr`` — exactly the tie-break of the
pure-Python functions — so index order is tie order and both bounds come
out identical to the reference (property-tested). The exact searches
hand over their live elimination graph, so nothing is re-interned per
node; a plain :class:`~repro.hypergraphs.graph.Graph` is interned once.
Degrees are kept incrementally across contractions instead of being
recounted on dict-of-set copies.

Two cuts keep the walk short without changing the result:

* gamma_R of a minor is only computed when it could raise the running
  bound, i.e. when the vertices of degree at most the bound form a
  clique (otherwise some non-adjacent pair among them caps gamma_R);
* a minor on ``n`` vertices has every degree and gamma_R at most
  ``n - 1``, so the walk stops once ``n - 1`` no longer exceeds the bound.
"""

from __future__ import annotations

from repro.hypergraphs.elimination_graph import (
    EliminationGraph,
    as_elimination_graph,
    bits_of,
)
from repro.hypergraphs.graph import Graph


def _gamma_r_exceeds(
    alive: list[int], adjacency: list[int], degree: list[int], bound: int
) -> int:
    """gamma_R of the current minor if it exceeds ``bound``, else ``bound``.

    gamma_R is the degree of the first vertex, in ascending degree order,
    that misses an earlier vertex (``n - 1`` on a clique); ties in degree
    do not change which degree that is.
    """
    low = [v for v in alive if degree[v] <= bound]
    seen = 0
    for v in low:
        seen |= 1 << v
    for v in low:
        if seen & ~adjacency[v] & ~(1 << v):
            return bound
    high = [v for v in alive if degree[v] > bound]
    for v in sorted(high, key=degree.__getitem__):
        if seen & ~adjacency[v]:
            return degree[v]
        seen |= 1 << v
    return max(bound, len(alive) - 1)


def minor_lower_bound(
    graph: Graph | EliminationGraph, min_width: bool = True, gamma_r: bool = True
) -> int:
    """Max of the selected minor bounds over one contraction sequence.

    Equals ``max(minor_min_width(graph), minor_gamma_r(graph))`` with
    ``rng=None`` when both are selected, and the selected one alone
    otherwise; 0 when neither is. ``graph`` is not modified.
    """
    if not (min_width or gamma_r):
        return 0
    working = as_elimination_graph(graph)
    # Eliminated vertices keep stale masks, but no live mask reaches them.
    adjacency = list(working.masks)
    alive = bits_of(working.alive)
    degree = [0] * len(adjacency)
    for v in alive:
        degree[v] = adjacency[v].bit_count()
    bound = 0
    while len(alive) - 1 > bound:
        vertex = min(alive, key=degree.__getitem__)
        if min_width and degree[vertex] > bound:
            bound = degree[vertex]
        if gamma_r:
            bound = _gamma_r_exceeds(alive, adjacency, degree, bound)
        alive.remove(vertex)
        neighbours = adjacency[vertex]
        if not neighbours:
            continue
        partner = min(bits_of(neighbours), key=degree.__getitem__)
        # Contract ``vertex`` into ``partner``: shared neighbours lose a
        # degree, the others swap ``vertex`` for ``partner``.
        vertex_bit = 1 << vertex
        partner_bit = 1 << partner
        moved = neighbours & ~partner_bit
        shared = moved & adjacency[partner]
        gained = moved & ~shared
        for w in bits_of(shared):
            adjacency[w] &= ~vertex_bit
            degree[w] -= 1
        for w in bits_of(gained):
            adjacency[w] = (adjacency[w] & ~vertex_bit) | partner_bit
        adjacency[partner] = (adjacency[partner] | moved) & ~vertex_bit
        degree[partner] += gained.bit_count() - 1
    return bound

