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
the canonically smaller vertex goes first. Swap-safety
(:func:`swap_safe_treewidth`, after Bachoore & Bodlaender) holds when

* ``v`` and ``w`` are non-adjacent (the produced bags are then literally
  the same two sets in either order), or
* ``v`` and ``w`` are adjacent and each has a private neighbour the other
  lacks — then the second bag (which is order-independent) dominates both
  first bags, so the max is order-independent.

The second case compares bag *sizes* and is therefore sound for treewidth
only; for generalized hypertree width :func:`swap_safe_ghw` accepts just
the non-adjacent case, where the bag *sets* (hence their covers) coincide.

Both tests read the adjacency masks of an
:class:`~repro.hypergraphs.elimination_graph.EliminationGraph`; a plain
:class:`~repro.hypergraphs.graph.Graph` is interned first.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.hypergraphs.elimination_graph import EliminationGraph, as_elimination_graph
from repro.hypergraphs.graph import Graph, Vertex


def swap_safe_treewidth(
    graph: Graph | EliminationGraph, v: Vertex, w: Vertex
) -> bool:
    """May ``v`` and ``w`` (both still present in ``graph``) be swapped as
    consecutive eliminations without changing any completion's width?"""
    working = as_elimination_graph(graph)
    if not working.has_edge(v, w):
        return True
    i = working.index[v]
    j = working.index[w]
    v_mask = working.masks[i]
    w_mask = working.masks[j]
    # Private neighbours: v's outside N[w], and w's outside N[v].
    return bool(v_mask & ~w_mask & ~(1 << j)) and bool(w_mask & ~v_mask & ~(1 << i))


def swap_safe_ghw(graph: Graph | EliminationGraph, v: Vertex, w: Vertex) -> bool:
    """The provably-safe (non-adjacent) fragment of PR2 for ghw."""
    return not as_elimination_graph(graph).has_edge(v, w)


def pr2_prune_children(
    graph_before_last: Graph | EliminationGraph,
    last: Vertex,
    children: list[Vertex],
    swap_safe: Callable[
        [EliminationGraph, Vertex, Vertex], bool
    ] = swap_safe_treewidth,
    key: Callable[[Vertex], object] = repr,
) -> list[Vertex]:
    """Drop children that PR2 makes redundant.

    ``graph_before_last`` is the graph state *before* ``last`` was
    eliminated — swap-safety must be judged with both vertices present.
    A child ``v`` is redundant when ``(last, v)`` is swap-safe and the
    sibling branch ``(v, last)`` is canonically preferred, i.e.
    ``key(v) < key(last)``. A plain graph is interned once, so
    ``swap_safe`` always receives an :class:`EliminationGraph`.
    """
    graph_before_last = as_elimination_graph(graph_before_last)
    last_key = key(last)
    return [
        v
        for v in children
        if key(v) > last_key or not swap_safe(graph_before_last, v, last)
    ]


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
