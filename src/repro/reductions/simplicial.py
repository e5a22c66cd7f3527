"""Simplicial and (strongly) almost simplicial reductions (Section 4.4.3).

Bodlaender et al.'s reduction rules shrink the search space of exact
treewidth algorithms without losing optimality:

* a **simplicial** vertex (neighbourhood is a clique, Definition 22) may
  always be eliminated next; the treewidth of the rest together with the
  vertex's degree determines the overall treewidth;
* a **strongly almost simplicial** vertex (all but one neighbour form a
  clique *and* its degree does not exceed a known treewidth lower bound,
  Definitions 23/24) may likewise be eliminated next.

For generalized hypertree width only the simplicial rule is used: an
optimal elimination ordering may always start at a simplicial vertex of
the (possibly filled) primal graph, because the clique ``N[v]`` must be
contained in some bag of every decomposition and eliminating ``v`` first
adds no fill (the library's DESIGN.md records the proof sketch). The
almost-simplicial rule's correctness argument compares bag *sizes*, which
does not transfer to cover *numbers*, so BB-ghw/A*-ghw do not use it.
"""

from __future__ import annotations

from repro.hypergraphs.elimination_graph import EliminationGraph, as_elimination_graph
from repro.hypergraphs.graph import Graph, Vertex


def _clique_defect(masks: list[int], members: int) -> tuple[int, int] | None:
    """``None`` if the vertices of ``members`` are pairwise adjacent, else
    the first member ``u`` that misses some other member, with the mask of
    members it misses."""
    rest = members
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        # ``members & ~masks[u]`` holds ``u`` itself (no loops): drop it.
        missing = (members & ~masks[u]) ^ low
        if missing:
            return u, missing
        rest ^= low
    return None


def _almost_clique(
    masks: list[int], members: int, defect: tuple[int, int]
) -> bool:
    """Do all but one vertex of ``members`` form a clique?

    ``defect`` is the non-adjacent pair evidence :func:`_clique_defect`
    found: ``u`` misses every vertex of ``missing``. The excluded vertex
    must meet every non-adjacent pair, so it is ``u`` — or, when ``u``
    misses exactly one vertex ``w``, possibly ``w``.
    """
    u, missing = defect
    if _clique_defect(masks, members & ~(1 << u)) is None:
        return True
    if missing & (missing - 1):
        return False
    return _clique_defect(masks, members & ~missing) is None


def _first_reduction(
    working: EliminationGraph, lower_bound: int | None, simplicial: bool
) -> Vertex | None:
    """The first vertex, in ``vertex_sort_key`` order, a rule forces.

    With ``simplicial`` set, the first simplicial vertex wins; failing
    one, the first strongly almost simplicial vertex (degree at most
    ``lower_bound``) if ``lower_bound`` is given. Without it, only
    strongly almost simplicial vertices that are not simplicial count.
    """
    masks = working.masks
    alive = working.alive
    almost: int | None = None
    for i in working.key_order:
        if not alive >> i & 1:
            continue
        neighbours = masks[i]
        if (
            almost is not None
            or lower_bound is None
            or neighbours.bit_count() > lower_bound
        ):
            # Only the simplicial rule can still pick this vertex.
            if simplicial and _clique_defect(masks, neighbours) is None:
                return working.labels[i]
            continue
        defect = _clique_defect(masks, neighbours)
        if defect is None:
            if simplicial:
                return working.labels[i]
        elif _almost_clique(masks, neighbours, defect):
            if not simplicial:
                return working.labels[i]
            almost = i
    return None if almost is None else working.labels[almost]


def find_simplicial(graph: Graph | EliminationGraph) -> Vertex | None:
    """Some simplicial vertex, or ``None``.

    Ties break on :func:`~repro.hypergraphs.graph.vertex_sort_key`, the
    same canonical order the bitset kernels intern vertices in, so the
    python and bitset paths force identical reduction vertices (integer
    vertices order numerically, not lexicographically by ``repr``).
    A vertex is simplicial when no neighbour misses another neighbour —
    one mask test per neighbour.
    """
    return _first_reduction(as_elimination_graph(graph), None, simplicial=True)


def find_strongly_almost_simplicial(
    graph: Graph | EliminationGraph, lower_bound: int
) -> Vertex | None:
    """Some almost simplicial vertex of degree <= ``lower_bound``, or None.

    Vertices that are outright simplicial are excluded here so callers can
    distinguish the two rules; use :func:`find_reduction_vertex` for the
    combined search the A* algorithms perform.
    """
    return _first_reduction(
        as_elimination_graph(graph), lower_bound, simplicial=False
    )


def find_reduction_vertex(
    graph: Graph | EliminationGraph,
    lower_bound: int,
    allow_almost_simplicial: bool = True,
) -> Vertex | None:
    """The vertex the reduction rules force as the only child, if any.

    Mirrors the child computation in Algorithm A*-tw (Figure 5.1): a
    simplicial vertex wins, otherwise a strongly almost simplicial vertex
    (with respect to ``lower_bound``) if permitted. Both rules are
    decided in one pass over the vertices.
    """
    return _first_reduction(
        as_elimination_graph(graph),
        lower_bound if allow_almost_simplicial else None,
        simplicial=True,
    )


def simplicial_preprocess(
    graph: Graph, lower_bound: int, allow_almost_simplicial: bool = True
) -> tuple[Graph, list[Vertex], int]:
    """Exhaustively apply the reduction rules before a search starts.

    Returns ``(reduced graph, eliminated prefix, updated lower bound)``.
    The treewidth of the original graph is
    ``max(updated lower bound, treewidth(reduced graph))`` and every
    optimal ordering of the reduced graph, prefixed with the eliminated
    vertices, is optimal for the original.
    """
    working = EliminationGraph(graph)
    prefix: list[Vertex] = []
    bound = lower_bound
    while True:
        vertex = find_reduction_vertex(
            working, bound, allow_almost_simplicial=allow_almost_simplicial
        )
        if vertex is None:
            return working.graph(), prefix, bound
        bound = max(bound, working.degree(vertex))
        working.eliminate(vertex)
        prefix.append(vertex)
