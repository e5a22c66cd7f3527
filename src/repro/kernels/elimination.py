"""Incremental bucket elimination over bitmasks (Figures 6.2 / 7.1).

The bucket-propagation scheme runs on interned bitmasks: eliminating a
vertex masks its bucket to the vertices still remaining, and pushes the
rest of that clique on to its *successor*, the clique member eliminated
first. ``_cliques`` is the library's one bucket recurrence:
:func:`bit_elimination_bags` (and through it
:func:`~repro.decompositions.elimination.elimination_bags`) and
:func:`bit_ordering_width` both read it.

The successor is found without looking at the clique's members: one
pass over the ordering builds the prefix masks ``before[p]`` (the
vertices at positions below ``p``), and the successor's position is
the largest ``p`` whose prefix the clique misses. That test is monotone
in ``p``, so a search galloping out from the eliminated vertex and then
bisecting takes about ``2 log2 d`` ANDs for a successor ``d`` positions
on — one when it is the next vertex, the most common case — where a
scan of the members took one step per member. A clique of two members
needs no search at all: each member takes the other, and the copy on
the member eliminated later is masked out by then. The last prefix mask
also checks that the ordering is a permutation, so no second pass
validates it.

The forward/pushed content of each bucket is identical set-by-set to the
dict-of-sets recurrence kept as the test oracle, which the property
suite checks on randomized graphs — including the Figure 6.2 early exit
of ``bit_ordering_width``.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
from operator import or_

from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cover import cover_mask


def _cliques(bg: BitGraph, order: list[int]) -> Iterator[int]:
    """The bucket recurrence: yield each eliminated vertex's clique.

    The clique is the mask of the vertex's neighbours that are
    eliminated later, its own edges plus everything pushed forward to
    it; the rest of it is then pushed on to its successor. The clique of
    position ``i`` holds only vertices at later positions, so it misses
    ``before[p]`` for every ``p`` from ``i + 1`` up to its successor's
    position and meets it beyond, up to ``before[n]``, every vertex.
    ``order`` must be a permutation of the vertex indices: its last
    prefix mask is then every vertex, and anything else raises
    ``ValueError`` before the first clique.
    """
    n = len(bg.vertices)
    before = list(accumulate([1 << index for index in order], or_, initial=0))
    if len(order) != n or before[-1] != bg.full_mask:
        raise ValueError("ordering is not a permutation of the vertices")
    nbr_masks = bg.nbr_masks
    pushed = [0] * n
    remaining = bg.full_mask
    for i, index in enumerate(order):
        remaining ^= 1 << index
        clique = (nbr_masks[index] | pushed[index]) & remaining
        yield clique
        rest = clique & (clique - 1)  # all but the lowest member
        if not rest:
            continue  # no member, or one: nothing to push on
        if not rest & (rest - 1):
            # Two members: push each onto the other. Whichever is
            # eliminated later has the earlier one masked out by then.
            low = clique ^ rest
            pushed[low.bit_length() - 1] |= rest
            pushed[rest.bit_length() - 1] |= low
            continue
        # The clique misses before[lo] and meets before[hi]: gallop hi
        # out from i + 2, then bisect down to hi == lo + 1.
        lo = i + 1
        hi = i + 2
        while not clique & before[hi]:
            lo = hi
            hi += hi - i
            if hi > n:
                hi = n
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if clique & before[mid]:
                hi = mid
            else:
                lo = mid
        successor = order[lo]
        pushed[successor] |= clique ^ (1 << successor)


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


def bit_ordering_ghw(bh: BitHypergraph, order: list[int]) -> int:
    """Greedy cover width of the ordering (Definition 17) on the bitset kernel.

    Every elimination bag is covered greedily over masks, ties toward
    the smallest edge name; covers are memoised in ``bh.covers`` keyed
    by the bag bitmask, so repeated bags — the common case across a GA
    population — cost one memo lookup.
    """
    width = 0
    for bag in bit_elimination_bags(bh, order):
        size = len(cover_mask(bh, bag))
        if size > width:
            width = size
    return width
