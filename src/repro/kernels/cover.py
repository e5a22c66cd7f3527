"""Set covers over bitmasks: greedy (Figure 7.2) and exact (B&B).

The library's one greedy set-cover loop and its one exact set-cover
search, both over bag bitmasks:

* :func:`greedy_cover_mask` is the greedy loop behind
  :func:`~repro.setcover.greedy.greedy_set_cover` and
  :func:`cover_mask`. It keeps the gains of all edges in bit-sliced
  counters — one mask over edge indices per bit of the gain
  — built once from the per-vertex incidence masks and lowered with a
  borrow chain as vertices get covered, so no step rescans the edges.
  Once the maximum gain is 1 the counters are dropped: every edge then
  holds at most one uncovered vertex, the tied edges are the disjoint
  union of those vertices' incidence masks, and each pick removes one
  of them. The maximum-gain edges come out in edge insertion order;
  with an ``rng`` the loop takes the ``rng._randbelow(count)``-th of
  them, the draw ``rng.choice`` makes on that list (the thesis's random
  tie-breaking, one draw per step), without one it takes the edge whose
  *name* is smallest under ``repr``;
* :func:`exact_cover_mask` is the library's one exact set-cover
  search, and :func:`windowed_cover_mask` the same search asked only
  whether the cover number lies inside a window ``(g, limit)``;
  :class:`~repro.setcover.exact.ExactSetCoverSolver`, the library's one
  exact-cover front end, is their only caller.

Neither routine ever scans the full edge family: edges meeting no bag
vertex never enter the counters or the exact search's edge list.
:func:`cover_mask` is the deterministic greedy cover memoised in the
:class:`BitHypergraph`'s own ``covers``, keyed by the bag bitmask,
which is what makes pool evaluation cheap: across a population of
orderings the same bags recur constantly. Random-tie covers are never
memoised; exact covers stay in their solver's memo. Every routine
answers in edge indices of one interned :class:`BitHypergraph`.
"""

from __future__ import annotations

import random
from math import ceil

from repro.kernels.bithypergraph import (  # UncoverableError is re-exported here
    BitHypergraph,
    UncoverableError,
    bits_of,
    uncoverable,
)


def _candidate_edges(bh: BitHypergraph, bag_mask: int) -> int:
    """Bitmask over edge indices of all edges meeting the bag."""
    candidates = 0
    incidence = bh.incidence_masks
    probe = bag_mask
    while probe:
        low = probe & -probe
        candidates |= incidence[low.bit_length() - 1]
        probe ^= low
    return candidates


def greedy_cover_mask(
    bh: BitHypergraph, bag_mask: int, rng: random.Random | None = None
) -> tuple[int, ...]:
    """The greedy loop: cover ``bag_mask``, return chosen edge indices.

    The gains (uncovered vertices held) of all edges live in
    bit-sliced counters: bit ``i`` of ``planes[j]`` is bit ``j`` of edge
    ``i``'s gain. They are summed once from the incidence masks of the
    uncovered vertices and lowered, with a borrow chain, by the
    incidence masks of the vertices each pick covers. While some gain
    exceeds 1, every step narrows the top non-empty plane down through
    the lower ones to the maximum-gain edges, in index (that is,
    insertion) order — the list the thesis's loop over all edges
    builds. Gains never grow, so once no plane above ``planes[0]`` is
    set every edge meets the uncovered set in at most one vertex: the
    uncovered vertices' incidence masks are pairwise disjoint and
    ``planes[0]`` is their union. The gain-one tail then keeps only
    that union, ``ties``; a pick covers a single vertex ``v`` and
    ``ties ^= incidence[v]`` drops exactly the edges that lost their
    gain, with no narrowing and no borrow chain. With an ``rng`` both
    phases take the ``k``-th tie for ``k = rng._randbelow(count)``,
    which is the draw ``rng.choice`` makes on that list (and what
    ``rng.randrange(count)`` draws; the bound method also follows a
    subclass that overrides only ``random()``), at every step, even on
    a single tie, so the random stream advances exactly as in that
    loop. Without one they take the tie of smallest edge name by
    ``repr`` (``bh.tie_rank``), the lowest index among equal names; the
    tail's ties only leave the set, so it ranks them once (stably) and
    walks that order past the edges gone since.
    A vertex in no edge is left when the tail's ties run out, after the
    same draws as in that loop.
    """
    edge_masks, incidence = bh.edge_masks, bh.incidence_masks
    tie_key = bh.tie_rank.__getitem__
    uncovered = bag_mask
    # A gain never exceeds |uncovered|, so this many planes never overflow.
    planes = [0] * uncovered.bit_count().bit_length()
    probe = uncovered
    while probe:
        low = probe & -probe
        probe ^= low
        carry = incidence[low.bit_length() - 1]  # add 1 to these gains
        j = 0
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    randbelow = None if rng is None else rng._randbelow
    top = len(planes) - 1
    chosen: list[int] = []
    while uncovered:
        while top >= 0 and not planes[top]:
            top -= 1  # gains never grow
        if top <= 0:
            break  # every gain is 0 or 1: the tail below
        ties = planes[top]
        j = top - 1
        while j >= 0:
            narrowed = ties & planes[j]
            if narrowed:
                ties = narrowed
            j -= 1
        if randbelow is not None:
            k = randbelow(ties.bit_count())
            while k:
                ties &= ties - 1
                k -= 1
            pick = (ties & -ties).bit_length() - 1
        else:
            pick = min(bits_of(ties), key=tie_key)
        covered = edge_masks[pick] & uncovered
        if not covered:
            # Only corrupt counters get here; without the check the
            # loop would pick the same edge forever.
            raise RuntimeError(f"greedy cover: edge {pick} has no gain")
        chosen.append(pick)
        uncovered ^= covered
        while covered:
            low = covered & -covered
            covered ^= low
            borrow = incidence[low.bit_length() - 1]  # these gains lose 1
            j = 0
            while borrow:
                plane = planes[j]
                planes[j] = plane ^ borrow
                borrow &= ~plane
                j += 1
    # Gain-one tail: the ties are the disjoint union of the uncovered
    # vertices' incidence masks, and a pick covers one vertex.
    ties = planes[0] if uncovered else 0
    if randbelow is None and ties:
        # Ties only leave: rank them once (a stable sort keeps the lower
        # index first among equal keys, as ``min`` does) and skip those
        # gone since.
        ranked = iter(sorted(bits_of(ties), key=tie_key))
    while uncovered:
        if not ties:
            raise uncoverable(bh.vertices[i] for i in bits_of(uncovered))
        if randbelow is not None:
            rest = ties
            k = randbelow(rest.bit_count())
            while k:
                rest &= rest - 1
                k -= 1
            pick = (rest & -rest).bit_length() - 1
        else:
            pick = next(ranked)
            while not ties >> pick & 1:
                pick = next(ranked)
        covered = edge_masks[pick] & uncovered
        if not covered:
            raise RuntimeError(f"greedy cover: edge {pick} has no gain")
        chosen.append(pick)
        uncovered ^= covered
        ties ^= incidence[covered.bit_length() - 1]
    return tuple(chosen)


def exact_cover_mask(
    bh: BitHypergraph, bag_mask: int, nodes: list[int] | None = None
) -> tuple[int, ...]:
    """An optimal cover of ``bag_mask``; returns chosen edge indices.

    Branch and bound: a greedy cover is the first incumbent, edges that
    are subsets of other edges (inside the bag) are dropped, the search
    branches on the uncovered vertex in the fewest kept edges (lowest
    bit on ties) and prunes with ``ceil(|uncovered| / max gain)``. The
    kept edges never change during the search, so the bag's bits are
    ranked by that count once and each node takes the first ranked bit
    still uncovered. ``nodes[0]``, when given, is increased by the
    number of search nodes.
    """
    return _exact_cover(bh, bag_mask, nodes, None)[0]


def windowed_cover_mask(
    bh: BitHypergraph,
    bag_mask: int,
    g: int,
    limit: int | None,
    nodes: list[int] | None = None,
) -> tuple[tuple[int, ...], int]:
    """A cover of ``bag_mask`` priced only inside the window ``(g, limit)``.

    Returns ``(cover, lower)``: ``lower`` is a proven lower bound on the
    cover number ``c`` and ``len(cover) >= c``, so the cover is optimal
    when the two meet. The answer satisfies the window contract:
    ``max(g, len(cover)) == max(g, c)`` whenever ``max(g, c) < limit``
    (``limit=None`` is no limit), and ``max(g, len(cover)) >= limit``
    otherwise.

    The greedy cover comes back at once when it is ``<= g``, when the
    size-profile floor over the kept restricted edge sizes reaches
    ``limit``, or when the floor equals it. Otherwise the search of
    :func:`exact_cover_mask` runs with budget ``min(|greedy|, limit)``
    and stops at the first cover no larger than ``max(g, floor)``.
    A cover it returns whose size is the cover number is the very tuple
    :func:`exact_cover_mask` returns: the smaller budget and the early
    stop prune only subtrees the first optimal leaf in search order does
    not lie in.
    """
    return _exact_cover(bh, bag_mask, nodes, (g, limit))


def _exact_cover(
    bh: BitHypergraph,
    bag_mask: int,
    nodes: list[int] | None,
    window: tuple[int, int | None] | None,
) -> tuple[tuple[int, ...], int]:
    """The body of both exact covers: ``(cover, proven lower bound)``."""
    if not bag_mask:
        return (), 0
    # Restrict to the bag, largest first (ties by name rank, then index).
    restricted: list[tuple[int, int, int, int]] = []
    coverable = 0
    edge_masks, tie_rank = bh.edge_masks, bh.tie_rank
    scan = _candidate_edges(bh, bag_mask)
    while scan:
        low = scan & -scan
        scan ^= low
        i = low.bit_length() - 1
        useful = edge_masks[i] & bag_mask
        restricted.append((-useful.bit_count(), tie_rank[i], i, useful))
        coverable |= useful
    if bag_mask & ~coverable:
        raise uncoverable(bh.vertices[i] for i in bits_of(bag_mask & ~coverable))
    restricted.sort()
    # Drop dominated (subset) edges: ``holders[b]`` is the mask over
    # positions in ``kept`` of the kept edges holding bag bit ``b``, so
    # ANDing it over an edge's bits leaves the kept edges containing it.
    kept: list[tuple[int, int, int]] = []  # (tie rank, edge index, mask)
    holders: dict[int, int] = {}
    get = holders.get
    for _size, rank, i, mask in restricted:
        above = -1  # every kept edge, until a bit rules it out
        probe = mask
        while probe and above:
            low = probe & -probe
            above &= get(low, 0)
            probe ^= low
        if above:
            continue
        position = 1 << len(kept)
        kept.append((rank, i, mask))
        probe = mask
        while probe:
            low = probe & -probe
            holders[low] = get(low, 0) | position
            probe ^= low

    best = list(greedy_cover_mask(bh, bag_mask))
    budget = len(best)
    floor = done = 0
    if window is not None:
        g, limit = window
        # Size-profile floor: the fewest kept edges (largest first) whose
        # sizes add up to the bag's.
        need = bag_mask.bit_count()
        for _r, _i, mask in kept:
            floor += 1
            need -= mask.bit_count()
            if need <= 0:
                break
        if budget <= g or floor == budget or (limit is not None and floor >= limit):
            return tuple(best), floor
        if limit is not None and limit < budget:
            budget = limit
        done = max(g, floor)

    # Pivot order: (kept edges holding the bit, bit), each bit with the
    # kept edges holding it, in ``kept`` order.
    pivots = [(low, [kept[j] for j in bits_of(held)]) for low, held in holders.items()]
    pivots.sort(key=lambda pivot: (len(pivot[1]), pivot[0]))

    counter = [0] if nodes is None else nodes
    masks = [mask for _r, _i, mask in kept]
    found = _search_mask(bag_mask, masks, pivots, [], budget, done, counter)
    if found is None:
        # No cover below the budget: the greedy cover is optimal, or
        # (budget = limit) the cover number reaches the limit.
        return tuple(best), budget
    # A search that stopped early, at a cover <= done, proves only the
    # floor; one that ran out proves its last cover optimal.
    return tuple(found), floor if len(found) <= done else len(found)


def _search_mask(
    uncovered: int,
    masks: list[int],
    pivots: list[tuple[int, list[tuple[int, int, int]]]],
    chosen: list[int],
    budget: int,
    done: int,
    nodes: list[int],
) -> list[int] | None:
    """Find a cover strictly smaller than ``budget`` if one exists; a
    cover no larger than ``done`` ends the search."""
    nodes[0] += 1
    if not uncovered:
        return list(chosen) if len(chosen) < budget else None
    max_gain = max((mask & uncovered).bit_count() for mask in masks)
    if max_gain == 0:
        return None
    if len(chosen) + ceil(uncovered.bit_count() / max_gain) >= budget:
        return None
    for pivot_bit, holders in pivots:
        if uncovered & pivot_bit:
            break
    candidates = sorted(
        holders, key=lambda item: (-(item[2] & uncovered).bit_count(), item[0])
    )
    best: list[int] | None = None
    for _rank, index, mask in candidates:
        chosen.append(index)
        found = _search_mask(
            uncovered & ~mask, masks, pivots, chosen, budget, done, nodes
        )
        chosen.pop()
        if found is not None:
            best = found
            budget = len(found)
            if budget <= len(chosen) + 1 or budget <= done:
                break
    return best


def cover_mask(bh: BitHypergraph, bag_mask: int) -> tuple[int, ...]:
    """The deterministic greedy cover of ``bag_mask``, through ``bh.covers``."""
    covers = bh.covers
    cover = covers.get(bag_mask)
    if cover is None:
        cover = greedy_cover_mask(bh, bag_mask)
        covers.put(bag_mask, cover)
    return cover
