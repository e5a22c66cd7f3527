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

A contraction touches as few masks as it can:

* the walk keeps a ``live`` mask of the minor's vertices. A contracted
  vertex only leaves ``live``; the copied adjacency masks keep its stale
  bit, so every neighbourhood is read as ``adjacency[v] & live``;
* live vertices sit in per-degree bitmask buckets, read lowest bit
  first — index order within a degree, which is the pure functions' tie
  order. The degree of a vertex is the bucket it sits in; no degree
  list is kept;
* the neighbours the contracted vertex shares with its partner lose one
  degree and nothing else. They move down one bucket a bucket at a time
  (``buckets[e] & shared``, ``e`` rising from the minimum degree, below
  which no vertex sits), and their masks are not rewritten;
* the other neighbours only gain the partner's bit; the partner gains
  theirs and moves to the bucket of its new degree.

Two cuts keep the walk short without changing the result:

* gamma_R of a minor is only computed when it could raise the running
  bound, i.e. when the vertices of degree at most the bound form a
  clique (otherwise some non-adjacent pair among them caps gamma_R);
  the probe is skipped outright when the minimum-degree vertex misses
  another vertex of its own bucket, a pair inside that set;
* a minor on ``n`` vertices has every degree and gamma_R at most
  ``n - 1``, so the walk stops once ``n - 1`` no longer exceeds the bound.

A caller that needs the bound only inside a window ``(floor, limit)``
(the exact searches, DESIGN.md "Windowed lower bounds") lets the walk
stop earlier: once the bound reaches ``limit``, and once ``n - 1`` no
longer exceeds ``floor`` — the running bound then counts as ``floor``
in both cuts, though only values the walk really met are returned.
"""

from __future__ import annotations

from repro.hypergraphs.elimination_graph import (
    EliminationGraph,
    as_elimination_graph,
)
from repro.hypergraphs.graph import Graph


def _gamma_r_exceeds(
    buckets: list[int],
    adjacency: list[int],
    lowest: int,
    n: int,
    bound: int,
    vertex_bit: int,
) -> int:
    """gamma_R of the current minor if it exceeds ``bound``, else ``bound``.

    gamma_R is the degree of the first vertex, in ascending degree order,
    that misses an earlier vertex (``n - 1`` on a clique); ties in degree
    do not change which degree that is. ``buckets[d]`` holds the ``n``
    live vertices of degree ``d``; none has degree below ``lowest``.
    Vertices are read bucket by bucket, lowest index first; a mask's
    stale bits are never live, so no read needs the live mask.

    The vertices of degree at most ``bound`` can only be a clique inside
    the closed neighbourhood of the minimum-degree vertex
    (``vertex_bit``), which each bucket is held to as it is read; the
    caller has checked ``buckets[lowest]`` already.
    """
    seen = 0
    if lowest <= bound:
        outside = ~(adjacency[vertex_bit.bit_length() - 1] | vertex_bit)
        seen = buckets[lowest]
        for d in range(lowest + 1, bound + 1):
            if buckets[d] & outside:
                return bound
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
    graph: Graph | EliminationGraph,
    min_width: bool = True,
    gamma_r: bool = True,
    *,
    floor: int = 0,
    limit: int | None = None,
) -> int:
    """Max of the selected minor bounds over one contraction sequence.

    Equals ``max(minor_min_width(graph), minor_gamma_r(graph))`` with
    ``rng=None`` when both are selected, and the selected one alone
    otherwise; 0 when neither is. ``graph`` is not modified.

    With a window, the result ``v`` is only as exact as
    ``(floor, limit)`` needs, for the full bound ``h``: always
    ``v <= h``; ``max(floor, v) == max(floor, h)`` when that is below
    ``limit``, and ``max(floor, v) >= limit`` otherwise.

    The minimum-degree vertex is the lowest bit of the first non-empty
    bucket, and a contraction lowers the minimum degree by at most one,
    so the scan for it steps back one bucket at most.
    """
    if not (min_width or gamma_r):
        return 0
    working = as_elimination_graph(graph)
    live = working.alive
    n = live.bit_count()
    if limit is None:
        limit = n  # no bound exceeds n - 1
    # Partner masks gain bits; dead bits go stale and are masked off.
    adjacency = list(working.masks)
    buckets = [0] * (n + 1)
    probe = live
    while probe:
        low = probe & -probe
        buckets[adjacency[low.bit_length() - 1].bit_count()] |= low
        probe ^= low
    bound = 0
    top = max(0, floor)  # max(bound, floor): what a minor must beat to matter
    lowest = 0
    while n - 1 > top < limit:
        while not buckets[lowest]:
            lowest += 1
        candidates = buckets[lowest]
        vertex_bit = candidates & -candidates
        vertex = vertex_bit.bit_length() - 1
        if min_width and lowest > top:
            bound = top = lowest
            if top >= limit:
                break
        # A vertex of the lowest bucket that the minimum-degree vertex
        # misses caps gamma_R at ``lowest <= top``: no probe needed.
        if gamma_r and not (
            lowest <= top and candidates & ~adjacency[vertex] & ~vertex_bit
        ):
            gamma = _gamma_r_exceeds(
                buckets, adjacency, lowest, n, top, vertex_bit
            )
            if gamma > top:
                bound = top = gamma
                if top >= limit:
                    break
        buckets[lowest] = candidates ^ vertex_bit
        live ^= vertex_bit
        n -= 1
        neighbours = adjacency[vertex] & live
        if not neighbours:
            continue
        # The partner is the lowest-index neighbour of minimum degree;
        # its degree ``d`` is the bucket it is found in.
        d = lowest
        while not buckets[d] & neighbours:
            d += 1
        partner_bit = buckets[d] & neighbours
        partner_bit &= -partner_bit
        partner = partner_bit.bit_length() - 1
        # Contract ``vertex`` into ``partner``: shared neighbours lose a
        # degree and move down a bucket; the others gain ``partner``'s
        # bit beside the stale one of ``vertex``.
        moved = neighbours ^ partner_bit
        partner_adjacency = adjacency[partner]
        shared = moved & partner_adjacency
        gained = moved ^ shared
        e = lowest
        while shared:
            moving = buckets[e] & shared
            if moving:
                buckets[e] ^= moving
                buckets[e - 1] |= moving
                shared ^= moving
            e += 1
        probe = gained
        while probe:
            low = probe & -probe
            adjacency[low.bit_length() - 1] |= partner_bit
            probe ^= low
        adjacency[partner] = partner_adjacency | gained
        buckets[d] ^= partner_bit
        buckets[d - 1 + gained.bit_count()] |= partner_bit
        # Every live degree is now at least the old minimum minus one.
        if lowest:
            lowest -= 1
    return bound
