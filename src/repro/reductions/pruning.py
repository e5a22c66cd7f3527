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
:class:`~repro.hypergraphs.elimination_graph.EliminationGraph`: its
``mask(working, i, candidates)`` keeps the candidates that swap safely
with ``w = labels[i]`` — the non-neighbours of ``w`` and, for
treewidth, the neighbours found by one pass over ``w``'s neighbours.
PR2 (:func:`pr2_prune_children`) asks it once per parent, about the
candidates whose ``repr`` is at most ``repr(w)``: the elimination graph
interns its vertices in stable ``repr`` order, so they are the index
prefix that ends with ``w``'s ``repr`` group
(:attr:`EliminationGraph.repr_ends`). The children are then filtered by
one bit test each. Calling a rule, as in ``swap_safe_treewidth(graph,
v, w)``, asks the same mask about one candidate; a plain
:class:`~repro.hypergraphs.graph.Graph` is interned first.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.hypergraphs.elimination_graph import (
    EliminationGraph,
    as_elimination_graph,
    bits_of,
)
from repro.hypergraphs.graph import Graph, Vertex


@dataclass(frozen=True)
class SwapRule:
    """PR2 swap-safety for one width measure, decided on masks.

    ``mask(working, i, candidates)`` is the part of ``candidates`` (a
    mask over ``working``'s indices) whose vertices may be swapped with
    ``labels[i]`` as consecutive eliminations without changing any
    completion's width. Only live candidates other than ``i`` are
    judged: the bits of ``i`` and of eliminated vertices may come back
    set. Calling the rule on ``(graph, v, w)``, both still present in
    ``graph``, asks it about ``v`` as a candidate for ``w``.
    """

    mask: Callable[[EliminationGraph, int, int], int]

    def __call__(self, graph: Graph | EliminationGraph, v: Vertex, w: Vertex) -> bool:
        working = as_elimination_graph(graph)
        index = working.index
        return bool(self.mask(working, index[w], 1 << index[v]))


def _treewidth_swaps(working: EliminationGraph, i: int, candidates: int) -> int:
    masks = working.masks
    row = masks[i]
    safe = candidates & ~row
    outside_w = ~(1 << i)
    for j in bits_of(candidates & row):
        other = masks[j]
        # Private neighbours: w's outside N[j], and j's outside N[w].
        if row & ~other & ~(1 << j) and other & ~row & outside_w:
            safe |= 1 << j
    return safe


def _ghw_swaps(working: EliminationGraph, i: int, candidates: int) -> int:
    return candidates & ~working.masks[i]


#: Treewidth swap-safety: non-adjacent pairs, and adjacent pairs where
#: each vertex has a private neighbour the other lacks.
swap_safe_treewidth = SwapRule(_treewidth_swaps)

#: The provably-safe (non-adjacent) fragment of PR2 for ghw.
swap_safe_ghw = SwapRule(_ghw_swaps)


def pr2_prune_children(
    graph_before_last: Graph | EliminationGraph,
    last: Vertex,
    children: list[Vertex],
    swap_safe: SwapRule = swap_safe_treewidth,
) -> list[Vertex]:
    """Drop children that PR2 makes redundant.

    ``graph_before_last`` is the graph state *before* ``last`` was
    eliminated — swap-safety must be judged with both vertices present.
    A child ``v`` is redundant when ``(last, v)`` is swap-safe and the
    sibling branch ``(v, last)`` is canonically preferred, i.e.
    ``repr(v) <= repr(last)``. The prune mask is built once for
    ``last``; ``children`` (live vertices other than ``last``) keep
    their order. A plain graph is interned once.
    """
    working = as_elimination_graph(graph_before_last)
    i = working.index[last]
    pruned = swap_safe.mask(working, i, (1 << working.repr_ends[i]) - 1)
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
