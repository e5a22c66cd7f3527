"""Incremental bucket elimination over bitmasks (Figures 6.2 / 7.1).

The bucket-propagation scheme runs on interned bitmasks: eliminating a
vertex is three integer operations (mask the remaining vertices, OR the
clique forward, clear the successor bit), so evaluating an ordering is a
single pass of machine-word arithmetic with no per-bag allocation.
``_cliques`` is the library's one bucket recurrence:
:func:`bit_elimination_bags` (and through it
:func:`~repro.decompositions.elimination.elimination_bags`) and
:func:`bit_ordering_width` both read it.

The forward/pushed content of each bucket is identical set-by-set to the
dict-of-sets recurrence kept as the test oracle, which the property
suite checks on randomized graphs — including the Figure 6.2 early exit
of ``bit_ordering_width``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cache import CoverCache, cover_cache
from repro.kernels.cover import cover_mask


def _check_order(bg: BitGraph, order: list[int]) -> None:
    seen = 0
    for index in order:
        seen |= 1 << index
    if len(order) != len(bg.vertices) or seen != bg.full_mask:
        raise ValueError("ordering is not a permutation of the vertices")


def _successor(clique: int, position: list[int]) -> int:
    """The member of ``clique`` eliminated first (minimum position)."""
    best = -1
    best_position = -1
    while clique:
        low = clique & -clique
        index = low.bit_length() - 1
        if best < 0 or position[index] < best_position:
            best = index
            best_position = position[index]
        clique ^= low
    return best


def _cliques(bg: BitGraph, order: list[int]) -> Iterator[int]:
    """The bucket recurrence: yield each eliminated vertex's clique.

    The clique is the mask of the vertex's neighbours that are
    eliminated later, its own edges plus everything pushed forward to
    it; it is then pushed on to the member eliminated first.
    """
    _check_order(bg, order)
    n = len(bg.vertices)
    position = [0] * n
    for i, index in enumerate(order):
        position[index] = i
    nbr_masks = bg.nbr_masks
    pushed = [0] * n
    remaining = bg.full_mask
    for index in order:
        remaining &= ~(1 << index)
        clique = (nbr_masks[index] | pushed[index]) & remaining
        yield clique
        if clique:
            successor = _successor(clique, position)
            pushed[successor] |= clique & ~(1 << successor)


def bit_elimination_bags(bg: BitGraph, order: list[int]) -> list[int]:
    """Bag masks ``{v} | N(v)`` per eliminated vertex, in order."""
    return [
        clique | 1 << index for index, clique in zip(order, _cliques(bg, order))
    ]


def bit_ordering_width(bg: BitGraph, order: list[int]) -> int:
    """Width of the ordering's tree decomposition (``max |bag| - 1``).

    Stops early (Figure 6.2) once the width reaches the number of
    vertices still to eliminate minus one: no later bag can exceed it.
    """
    last = len(bg.vertices) - 1
    width = 0
    for i, clique in enumerate(_cliques(bg, order)):
        size = clique.bit_count()
        if size > width:
            width = size
        if width >= last - i - 1:
            break
    return width


def bit_ordering_ghw(
    bh: BitHypergraph,
    order: list[int],
    cover: str = "greedy",
    cache: CoverCache | None = None,
) -> int:
    """Cover width of the ordering (Definition 17) on the bitset kernel.

    Every elimination bag is covered with hyperedges (greedy or exact
    over masks); covers are memoised in the shared cover cache keyed by
    the bag bitmask, so repeated bags — the common case across a GA
    population — cost one cache lookup.
    """
    if cover not in ("greedy", "exact"):
        raise ValueError(f"unknown cover mode {cover!r}")
    if cache is None:
        cache = cover_cache()
    width = 0
    for bag in bit_elimination_bags(bh, order):
        size = len(cover_mask(bh, bag, cover, cache))
        if size > width:
            width = size
    return width
