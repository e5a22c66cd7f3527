"""Treewidth lower-bound heuristics (Section 4.4.2).

All bounds here exploit the facts that (a) the treewidth of a graph is at
least the treewidth of any of its *minors* and (b) simple degree-based
parameters bound treewidth from below:

* **MMD / degeneracy**: repeatedly delete a minimum-degree vertex; the
  largest minimum degree seen is a lower bound.
* **minor-min-width** (Figure 4.7, QuickBB; independently MMD+(least-c)):
  like MMD but *contract* the minimum-degree vertex into its
  smallest-degree neighbour, strengthening the bound via minors.
* **gamma_R**: Ramachandramurthi's parameter — ``n - 1`` for a complete
  graph, otherwise the minimum over non-adjacent pairs ``u, v`` of
  ``max(degree(u), degree(v))``; always a treewidth lower bound.
* **minor-gamma_R** (Figure 4.8): maximise gamma_R over a sequence of
  minors obtained by contracting low-degree vertices.

``treewidth_lower_bound`` returns the max of the selected heuristics,
matching the thesis's choice for A*-tw ("the maximum of the values
returned by the minor-min-width heuristic and the minor-gamma_R
heuristic"). With ``rng=None`` both minor bounds follow one contraction
sequence, so it computes them in a single bitmask pass
(:mod:`repro.kernels.minor_bound`) with the same result, reading the
masks of an :class:`~repro.hypergraphs.elimination_graph.EliminationGraph`
directly; the functions here remain the seeded path and the oracle the
kernel is tested against.
"""

from __future__ import annotations

import random

from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.kernels.minor_bound import minor_lower_bound


def _pick(candidates: list[Vertex], rng: random.Random | None) -> Vertex:
    """The draw ``rng.choice`` makes, or the smallest ``repr`` without one."""
    if rng is None:
        return min(candidates, key=repr)
    return rng.choice(candidates)


def _contract_into_min_neighbour(
    graph: Graph, vertex: Vertex, rng: random.Random | None
) -> None:
    """Contract ``vertex``'s edge to its minimum-degree neighbour.

    Isolated vertices are simply removed (there is no edge to contract;
    removing them never increases any degree-based bound).
    """
    candidates = graph.min_degree_neighbours(vertex)
    if candidates:
        graph.contract(_pick(candidates, rng), vertex)
    else:
        graph.remove_vertex(vertex)


def degeneracy(graph: Graph, rng: random.Random | None = None) -> int:
    """MMD: the degeneracy of the graph, a treewidth lower bound."""
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        lowest, candidates = working.min_degree_vertices()
        bound = max(bound, lowest)
        working.remove_vertex(_pick(candidates, rng))
    return bound


def minor_min_width(graph: Graph, rng: random.Random | None = None) -> int:
    """Figure 4.7: the minor-min-width treewidth lower bound."""
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        lowest, candidates = working.min_degree_vertices()
        bound = max(bound, lowest)
        _contract_into_min_neighbour(working, _pick(candidates, rng), rng)
    return bound


def gamma_r(graph: Graph) -> int:
    """Ramachandramurthi's gamma parameter of ``graph``.

    ``n - 1`` if the graph is complete, else the minimum over vertices
    ``v`` that are non-adjacent to at least one other vertex of the
    degree of ``v``'s cheapest non-adjacent "partner" — equivalently,
    min over non-adjacent pairs of the larger degree, or the smallest
    ``d`` whose vertices of degree at most ``d`` are not a clique
    (:meth:`Graph.gamma_r`).
    """
    return graph.gamma_r()


def minor_gamma_r(graph: Graph, rng: random.Random | None = None) -> int:
    """Figure 4.8: maximise gamma_R over minimum-degree contractions.

    gamma_R of a minor is evaluated only as far as it could raise the
    running bound; the contractions, and so the draws, are those of
    every minor down to one vertex.
    """
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 1:
        lowest, candidates = working.min_degree_vertices()
        # Two non-adjacent vertices of degree ``lowest <= bound`` cap
        # gamma_R at the bound: no need to evaluate it.
        if lowest > bound or working.is_clique(candidates):
            bound = working.gamma_r(bound)
        _contract_into_min_neighbour(working, _pick(candidates, rng), rng)
    return bound


_METHODS = {
    "degeneracy": degeneracy,
    "minor-min-width": minor_min_width,
    "minor-gamma-r": minor_gamma_r,
}


#: Methods that ``rng=None`` requests hand to the bitmask kernel.
_KERNEL_METHODS = ("minor-min-width", "minor-gamma-r")


def lower_bound_names() -> list[str]:
    return list(_METHODS)


def treewidth_lower_bound(
    graph: Graph | EliminationGraph,
    methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    *,
    floor: int = 0,
    limit: int | None = None,
) -> int:
    """Max of the selected heuristics (the thesis's A*-tw combination).

    With ``rng=None`` the minor bounds run on the bitmask kernel, which
    returns exactly what the pure-Python functions would. The exact
    searches pass their live :class:`EliminationGraph`; the pure-Python
    methods then run on a :meth:`~EliminationGraph.graph` snapshot.

    ``floor`` and ``limit`` let the kernel stop once the answer is
    decided inside that window (see
    :func:`~repro.kernels.minor_bound.minor_lower_bound`): the result
    ``v`` is never above the full bound ``h``, and ``max(floor, v)``
    equals ``max(floor, h)`` below ``limit`` and reaches ``limit``
    otherwise. The other methods ignore the window.
    """
    for name in methods:
        if name not in _METHODS:
            raise ValueError(
                f"unknown lower bound {name!r}; choose from {lower_bound_names()}"
            )
    if graph.num_vertices() == 0:
        return 0
    best = 0
    if rng is None:
        best = minor_lower_bound(
            graph,
            min_width="minor-min-width" in methods,
            gamma_r="minor-gamma-r" in methods,
            floor=floor,
            limit=limit,
        )
        methods = tuple(name for name in methods if name not in _KERNEL_METHODS)
    if methods and isinstance(graph, EliminationGraph):
        graph = graph.graph()
    for name in methods:
        best = max(best, _METHODS[name](graph, rng))
    return best
