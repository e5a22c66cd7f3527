"""Pruning rules for elimination-ordering searches (Sections 4.4.4-4.4.5).

**Pruning rule 1 (PR1).** At a search node with partial width ``g`` and
``n'`` remaining vertices, any completion has width at most
``max(g, n' - 1)`` — eliminate the rest in any order and no bag exceeds
the remainder. So ``max(g, n' - 1)`` may update the incumbent, and if
``n' - 1 <= g`` the subtree's best is exactly ``g`` and the subtree can be
closed. :func:`pr1_treewidth` returns that certificate;
:func:`pr1_ghw` is the cover-number analogue, where the achievable
completion width is the cover number of the whole remainder (every later
clique is a subset of the remainder, and covering a subset never costs
more than covering the superset).

**Pruning rule 2 (PR2).** If ``v`` and ``w`` are eliminated consecutively
and swapping them provably preserves the width of every completion, only
one of the two sibling branches needs exploring; we keep the branch where
the canonically smaller vertex goes first. Swap-safety (after Bachoore &
Bodlaender) holds when

* ``v`` and ``w`` are non-adjacent (the produced bags are then literally
  the same two sets in either order), or
* ``v`` and ``w`` are adjacent and each has a private neighbour the other
  lacks — then the second bag (which is order-independent) dominates both
  first bags, so the max is order-independent.

The second case compares bag *sizes* and is therefore sound for treewidth
only; for generalized hypertree width only the non-adjacent case is
taken, where the bag *sets* (hence their covers) coincide.

Each rule is a :class:`SwapRule` over the adjacency masks of an
:class:`~repro.hypergraphs.elimination_graph.EliminationGraph`, judged
right *after* ``w = labels[i]`` was eliminated, from the undo record
that elimination pushed: ``masks[i]`` is still ``w``'s old row, and for
a neighbour ``j`` with fill mask ``fill_j`` the two private-neighbour
tests of the state before are

* ``row & ~old_j & ~bit_j == fill_j`` (``w``'s neighbours ``j``
  missed), and
* ``old_j & ~row & ~bit_i == masks[j] & ~row`` (``j``'s neighbours
  outside ``w``'s row; fill only adds bits inside it).

So the searches run PR2 only on a child that survived its bound, with
nothing to restore. Its ``mask(working, i, fills, candidates)`` keeps
the candidates that swap safely with ``w``: the non-neighbours of
``w`` and, for treewidth, the neighbours whose two tests hold. PR2
(:func:`pr2_prune_children`) asks it once per parent, about the
candidates whose ``repr`` is at most ``repr(w)``: the elimination graph
interns its vertices in stable ``repr`` order, so they are the index
prefix that ends with ``w``'s ``repr`` group
(:attr:`EliminationGraph.repr_ends`). The children are then filtered by
one bit test each. Calling a rule, as in ``swap_safe_treewidth(graph,
v, w)``, asks the same mask about one candidate of a graph where both
are present: ``w`` is eliminated for the question and restored, on an
interned copy of a plain :class:`~repro.hypergraphs.graph.Graph`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.hypergraphs.elimination_graph import EliminationGraph, as_elimination_graph
from repro.hypergraphs.graph import Graph, Vertex


@dataclass(frozen=True)
class SwapRule:
    """PR2 swap-safety for one width measure, decided on masks.

    ``mask(working, i, fills, candidates)`` is the part of
    ``candidates`` (a mask over ``working``'s indices) whose vertices
    may be swapped with ``labels[i]`` as consecutive eliminations
    without changing any completion's width. It is asked right after
    ``labels[i]`` was eliminated, ``fills`` being that elimination's
    ``[(neighbour, fill mask)]`` undo entries. Only live candidates
    are judged: the bits of ``i`` and of eliminated vertices may come
    back set. Calling the rule on ``(graph, v, w)``, both still present
    in ``graph``, asks it about ``v`` as a candidate for ``w``.
    """

    mask: Callable[[EliminationGraph, int, list[tuple[int, int]], int], int]

    def __call__(self, graph: Graph | EliminationGraph, v: Vertex, w: Vertex) -> bool:
        with _eliminated(graph, w) as (working, i, fills):
            return bool(self.mask(working, i, fills, 1 << working.index[v]))


@contextmanager
def _eliminated(
    graph: Graph | EliminationGraph, last: Vertex
) -> Iterator[tuple[EliminationGraph, int, list[tuple[int, int]]]]:
    """``graph`` (interned if plain) with ``last`` eliminated for the
    block, as ``(working, index of last, its undo fills)``."""
    working = as_elimination_graph(graph)
    working.eliminate(last)
    try:
        _vertex, i, fills = working.last_record()
        yield working, i, fills
    finally:
        working.restore()


def _treewidth_swaps(
    working: EliminationGraph, i: int, fills: list[tuple[int, int]], candidates: int
) -> int:
    masks = working.masks
    row = masks[i]
    safe = candidates & ~row
    for j, fill in fills:
        # Private neighbours: w's outside N[j] (j's fill), and j's
        # outside N[w] (what j holds outside w's row).
        if fill and candidates >> j & 1 and masks[j] & ~row:
            safe |= 1 << j
    return safe


def _ghw_swaps(
    working: EliminationGraph, i: int, fills: list[tuple[int, int]], candidates: int
) -> int:
    return candidates & ~working.masks[i]


#: Treewidth swap-safety: non-adjacent pairs, and adjacent pairs where
#: each vertex has a private neighbour the other lacks.
swap_safe_treewidth = SwapRule(_treewidth_swaps)

#: The provably-safe (non-adjacent) fragment of PR2 for ghw.
swap_safe_ghw = SwapRule(_ghw_swaps)


def pr2_prune_children(
    working: Graph | EliminationGraph,
    last: Vertex,
    children: list[Vertex],
    swap_safe: SwapRule = swap_safe_treewidth,
) -> list[Vertex]:
    """Drop children that PR2 makes redundant.

    ``working`` is the state right after ``last`` was eliminated, with
    that elimination's undo record on top: swap-safety is judged from
    it (module docstring). A plain graph, or an elimination graph that
    still holds ``last``, is the state before: ``last`` is eliminated
    for the judgement (on an interned copy of a plain graph) and
    restored. A child ``v`` is redundant when ``(last, v)`` is
    swap-safe and the sibling branch ``(v, last)`` is canonically
    preferred, i.e. ``repr(v) <= repr(last)``. The prune mask is built
    once for ``last``; ``children`` (live vertices other than ``last``)
    keep their order.
    """
    if not isinstance(working, EliminationGraph) or (
        working.alive >> working.index[last] & 1
    ):
        with _eliminated(working, last) as (eliminated, _i, _fills):
            return pr2_prune_children(eliminated, last, children, swap_safe)
    _vertex, i, fills = working.last_record()
    if i != working.index[last]:
        raise ValueError(f"{last!r} is not the last vertex eliminated")
    pruned = swap_safe.mask(working, i, fills, (1 << working.repr_ends[i]) - 1)
    if not pruned:
        return children
    index = working.index
    return [v for v in children if not pruned >> index[v] & 1]


def pr1_treewidth(g: int, remaining: int) -> tuple[int, bool]:
    """PR1 for treewidth searches.

    Returns ``(achievable, close_subtree)``: ``achievable`` is the width
    ``max(g, remaining - 1)`` obtainable by finishing immediately, and
    ``close_subtree`` says the subtree cannot beat ``g`` and may be
    abandoned once ``achievable`` has been offered as an incumbent.
    """
    achievable = max(g, remaining - 1)
    return achievable, remaining - 1 <= g


def pr1_ghw(g: int, remainder_cover: int) -> tuple[int, bool]:
    """PR1 for ghw searches.

    ``remainder_cover`` is (an upper bound on) the number of hyperedges
    needed to cover *all* remaining vertices; finishing in any order
    yields width at most ``max(g, remainder_cover)``.
    """
    achievable = max(g, remainder_cover)
    return achievable, remainder_cover <= g
