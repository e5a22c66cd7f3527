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
Degrees are kept incrementally across contractions, and live vertices
sit in per-degree bitmask buckets, read lowest bit first — index order
within a degree, which is the pure functions' tie order.

Two cuts keep the walk short without changing the result:

* gamma_R of a minor is only computed when it could raise the running
  bound, i.e. when the vertices of degree at most the bound form a
  clique (otherwise some non-adjacent pair among them caps gamma_R);
  the probe is skipped outright when the minimum-degree vertex misses
  another vertex of its own bucket, a pair inside that set;
* a minor on ``n`` vertices has every degree and gamma_R at most
  ``n - 1``, so the walk stops once ``n - 1`` no longer exceeds the bound.
"""

from __future__ import annotations

from repro.hypergraphs.elimination_graph import (
    EliminationGraph,
    as_elimination_graph,
)
from repro.hypergraphs.graph import Graph


def _gamma_r_exceeds(
    buckets: list[int], adjacency: list[int], lowest: int, n: int, bound: int
) -> int:
    """gamma_R of the current minor if it exceeds ``bound``, else ``bound``.

    gamma_R is the degree of the first vertex, in ascending degree order,
    that misses an earlier vertex (``n - 1`` on a clique); ties in degree
    do not change which degree that is. ``buckets[d]`` holds the ``n``
    live vertices of degree ``d``; none has degree below ``lowest``.
    Vertices are read bucket by bucket, lowest index first.
    """
    seen = 0
    for d in range(lowest, bound + 1):
        seen |= buckets[d]
    probe = seen
    while probe:
        low = probe & -probe
        if seen & ~adjacency[low.bit_length() - 1] & ~low:
            return bound
        probe ^= low
    for d in range(max(lowest, bound + 1), n):
        probe = buckets[d]
        while probe:
            low = probe & -probe
            if seen & ~adjacency[low.bit_length() - 1]:
                return d
            seen |= low
            probe ^= low
    return max(bound, n - 1)


def minor_lower_bound(
    graph: Graph | EliminationGraph, min_width: bool = True, gamma_r: bool = True
) -> int:
    """Max of the selected minor bounds over one contraction sequence.

    Equals ``max(minor_min_width(graph), minor_gamma_r(graph))`` with
    ``rng=None`` when both are selected, and the selected one alone
    otherwise; 0 when neither is. ``graph`` is not modified.

    Live vertices sit in per-degree bitmask buckets. The minimum-degree
    vertex is the lowest bit of the first non-empty bucket, and a
    contraction lowers the minimum degree by at most one, so the scan
    for it steps back one bucket at most.
    """
    if not (min_width or gamma_r):
        return 0
    working = as_elimination_graph(graph)
    # Eliminated vertices keep stale masks, but no live mask reaches them.
    adjacency = list(working.masks)
    n = working.alive.bit_count()
    degree = [0] * len(adjacency)
    buckets = [0] * (n + 1)
    probe = working.alive
    while probe:
        low = probe & -probe
        v = low.bit_length() - 1
        d = adjacency[v].bit_count()
        degree[v] = d
        buckets[d] |= low
        probe ^= low
    bound = 0
    lowest = 0
    while n - 1 > bound:
        while not buckets[lowest]:
            lowest += 1
        vertex_bit = buckets[lowest] & -buckets[lowest]
        vertex = vertex_bit.bit_length() - 1
        if min_width and lowest > bound:
            bound = lowest
        # A vertex of the lowest bucket that the minimum-degree vertex
        # misses caps gamma_R at ``lowest <= bound``: no probe needed.
        if gamma_r and not (
            lowest <= bound and buckets[lowest] & ~adjacency[vertex] & ~vertex_bit
        ):
            bound = _gamma_r_exceeds(buckets, adjacency, lowest, n, bound)
        buckets[lowest] ^= vertex_bit
        n -= 1
        neighbours = adjacency[vertex]
        if not neighbours:
            continue
        # The partner is the lowest-index neighbour of minimum degree.
        d = lowest
        while not buckets[d] & neighbours:
            d += 1
        partner_bit = buckets[d] & neighbours
        partner_bit &= -partner_bit
        partner = partner_bit.bit_length() - 1
        # Contract ``vertex`` into ``partner``: shared neighbours lose a
        # degree, the others swap ``vertex`` for ``partner``.
        moved = neighbours & ~partner_bit
        shared = moved & adjacency[partner]
        gained = moved & ~shared
        probe = shared
        while probe:
            low = probe & -probe
            w = low.bit_length() - 1
            adjacency[w] &= ~vertex_bit
            d = degree[w]
            buckets[d] ^= low
            buckets[d - 1] |= low
            degree[w] = d - 1
            probe ^= low
        probe = gained
        while probe:
            low = probe & -probe
            w = low.bit_length() - 1
            adjacency[w] = (adjacency[w] & ~vertex_bit) | partner_bit
            probe ^= low
        adjacency[partner] = (adjacency[partner] | moved) & ~vertex_bit
        d = degree[partner]
        buckets[d] ^= partner_bit
        d += gained.bit_count() - 1
        buckets[d] |= partner_bit
        degree[partner] = d
        # Every live degree is now at least the old minimum minus one.
        if lowest:
            lowest -= 1
    return bound
