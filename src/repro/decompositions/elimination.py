"""Bucket/vertex elimination: from orderings to decompositions (Section 2.5).

An *elimination ordering* is a permutation of the vertices. Throughout
this library orderings are written in **elimination order**: the first
element is eliminated first. (The thesis writes orderings so that the
*last* element is eliminated first and processes buckets ``n`` down to
``1``; reverse a thesis ordering to obtain ours.)

Given a hypergraph and an ordering, bucket elimination (Figure 2.10) and
vertex elimination (Figure 2.12) produce the same tree decomposition; we
implement the vertex-elimination formulation because the search algorithms
already maintain elimination graphs. Covering each bag with hyperedges
(greedy — Figure 7.2 — or exact) upgrades the tree decomposition to a
generalized hypertree decomposition, which by Theorems 2 and 3 of the
thesis is an *optimal-width-complete* construction: some ordering yields a
GHD of width exactly ``ghw(H)`` when covers are exact.

Fast width evaluation (Figures 6.2 and 7.1) avoids building any graph
objects in the GA inner loop; it is the O(|V| + |E'|) bucket-propagation
scheme of Golumbic's perfect-elimination test. :func:`elimination_bags`
runs it on the :mod:`repro.kernels` bitmasks, and takes an interned
:class:`~repro.kernels.BitGraph` directly (returning bag masks) so hot
loops intern once. ``backend="bitset"`` switches :func:`ordering_width`
and :func:`ordering_ghw` to the kernel's width and cached-cover paths,
which return identical widths (property-tested); hot loops should build
a kernel evaluator once via :mod:`repro.kernels.evaluators` instead of
paying the per-call interning here.

Set covers — greedy deterministic and exact — are memoised in the
process-wide :func:`~repro.kernels.cache.cover_cache`, so
:func:`ordering_to_ghd` reuses the covers :func:`ordering_ghw` already
computed for the same bags rather than solving them again.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence, Set as AbstractSet

from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import EdgeName, Hypergraph
from repro.kernels.bithypergraph import BitGraph
from repro.kernels.cache import cover_cache, edges_token
from repro.kernels.elimination import bit_elimination_bags
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover


def _check_ordering(
    vertices: AbstractSet[Vertex], ordering: Sequence[Vertex]
) -> None:
    """Reject orderings that are not permutations of ``vertices``.

    One pass over the ordering; the error names the offending vertex so
    callers can see *which* duplicate/unknown/missing vertex broke it.
    """
    seen: set[Vertex] = set()
    for vertex in ordering:
        if vertex in seen:
            raise ValueError(
                "ordering is not a permutation of the vertices: "
                f"duplicate vertex {vertex!r}"
            )
        if vertex not in vertices:
            raise ValueError(
                "ordering is not a permutation of the vertices: "
                f"unknown vertex {vertex!r}"
            )
        seen.add(vertex)
    if len(seen) != len(vertices):
        missing = min(vertices - seen, key=repr)
        raise ValueError(
            "ordering is not a permutation of the vertices: "
            f"missing vertex {missing!r}"
        )


def _cached_greedy_cover(
    bag: set[Vertex],
    edges: Mapping[EdgeName, frozenset[Vertex]],
    rng: random.Random | None,
    token: int | None,
) -> list[EdgeName]:
    """Greedy cover of ``bag``, via the shared cache when deterministic.

    With an ``rng`` the thesis's randomised tie-breaking applies and the
    result is intentionally never cached (re-randomisation is part of
    the semantics); without one the deterministic greedy cover is
    memoised process-wide, so :func:`ordering_ghw` and
    :func:`ordering_to_ghd` each solve any given bag at most once.
    """
    if rng is not None or token is None:
        return greedy_set_cover(bag, edges, rng=rng)
    cache = cover_cache()
    key = frozenset(bag)
    cached = cache.get(token, "greedy", key)
    if cached is not None:
        return list(cached)
    cover = greedy_set_cover(bag, edges)
    cache.put(token, "greedy", key, tuple(cover))
    return cover


def elimination_bags(
    graph: Graph | BitGraph, ordering: Sequence[Vertex]
) -> dict[Vertex, set[Vertex]] | dict[Vertex, int]:
    """The bag ``{v} | N(v)`` produced when each vertex is eliminated.

    Runs the bucket-propagation scheme of Figure 6.2 on bitmasks
    (:func:`~repro.kernels.elimination.bit_elimination_bags`): instead
    of mutating a graph, the not-yet-eliminated part of each clique is
    pushed forward to the next vertex scheduled for elimination. Bags
    come in elimination order. A :class:`~repro.kernels.BitGraph` (or
    ``BitHypergraph``) gives ``{vertex: bag mask}``; a :class:`Graph`
    is interned once and its masks are unpacked to vertex sets.
    """
    if not isinstance(graph, BitGraph):
        bg = BitGraph.from_graph(graph)
        return {
            vertex: bg.vertices_of(mask)
            for vertex, mask in elimination_bags(bg, ordering).items()
        }
    index = graph.index
    _check_ordering(index.keys(), ordering)
    return dict(
        zip(ordering, bit_elimination_bags(graph, [index[v] for v in ordering]))
    )


def ordering_width(
    graph: Graph, ordering: Sequence[Vertex], backend: str = "python"
) -> int:
    """Width of the tree decomposition induced by ``ordering``.

    Equals ``max |bag| - 1``. Includes the early exit of Figure 6.2: once
    the running width reaches the number of remaining vertices minus one,
    no later bag can exceed it. ``backend="bitset"`` evaluates on the
    bitmask kernel instead (identical result).
    """
    if backend != "python":
        from repro.kernels.bithypergraph import BitGraph
        from repro.kernels.elimination import bit_ordering_width
        from repro.kernels.evaluators import check_backend

        check_backend(backend)
        bg = BitGraph.from_graph(graph)
        return bit_ordering_width(bg, bg.order_of(ordering))
    _check_ordering(graph.vertices(), ordering)
    position = {vertex: i for i, vertex in enumerate(ordering)}
    forward: dict[Vertex, set[Vertex]] = {
        vertex: {
            neighbour
            for neighbour in graph.neighbours(vertex)
            if position[neighbour] > position[vertex]
        }
        for vertex in ordering
    }
    width = 0
    total = len(ordering)
    for index, vertex in enumerate(ordering):
        remaining = total - index - 1
        if width >= remaining:
            break
        clique = forward[vertex]
        width = max(width, len(clique))
        if clique:
            successor = min(clique, key=position.__getitem__)
            forward[successor] |= clique - {successor}
    return width


def ordering_ghw(
    hypergraph: Hypergraph,
    ordering: Sequence[Vertex],
    cover: str = "greedy",
    rng: random.Random | None = None,
    solver: ExactSetCoverSolver | None = None,
    backend: str = "python",
) -> int:
    """Cover width of ``ordering``: ``width(sigma, H)`` of Definition 17.

    Every elimination bag is covered with hyperedges of ``hypergraph``;
    the maximum cover size over all bags is returned. With
    ``cover="exact"`` this is the exact quantity whose minimum over all
    orderings equals ``ghw(H)`` (Theorem 3); with ``cover="greedy"`` it is
    the upper bound GA-ghw optimises (Figure 7.1). Covers are memoised
    in the shared cover cache, except greedy covers with an ``rng``:
    their random tie-breaks must stay fresh, so every backend runs them
    uncached on the bitmask kernel and leaves ``rng`` in the same state.
    ``backend="bitset"`` evaluates the other paths on the kernel too;
    identical widths.
    """
    random_ties = cover == "greedy" and rng is not None
    if backend != "python" or random_ties:
        from repro.kernels.bithypergraph import BitHypergraph
        from repro.kernels.elimination import bit_ordering_ghw
        from repro.kernels.evaluators import check_backend

        check_backend(backend)
        bh = BitHypergraph.from_hypergraph(hypergraph)
        if random_ties:
            return max(
                (
                    len(greedy_set_cover(bag, bh, rng=rng))
                    for bag in elimination_bags(bh, ordering).values()
                ),
                default=0,
            )
        return bit_ordering_ghw(bh, bh.order_of(ordering), cover=cover)
    bags = elimination_bags(hypergraph.primal_graph(), ordering)
    edges = hypergraph.edges()
    if cover == "exact":
        active_solver = solver or ExactSetCoverSolver(edges)
        return max(
            (active_solver.cover_size(bag) for bag in bags.values()), default=0
        )
    if cover != "greedy":
        raise ValueError(f"unknown cover mode {cover!r}")
    token = edges_token(edges)
    return max(
        (
            len(_cached_greedy_cover(bag, edges, None, token))
            for bag in bags.values()
        ),
        default=0,
    )


def ordering_to_tree_decomposition(
    graph: Graph, ordering: Sequence[Vertex]
) -> TreeDecomposition:
    """Build the full bucket-elimination tree decomposition (Figure 2.10).

    One node per vertex, labelled by its elimination bag; each bucket is
    connected to the bucket of the next-to-be-eliminated vertex in its
    bag. Buckets whose bag contains no later vertex start a new component;
    they are linked to the immediately following bucket so the result is a
    single tree (their bags share no vertices, so connectedness is safe).
    """
    _check_ordering(graph.vertices(), ordering)
    bags = elimination_bags(graph, ordering)
    position = {vertex: i for i, vertex in enumerate(ordering)}
    decomposition = TreeDecomposition()
    node_of: dict[Vertex, int] = {}
    for vertex in ordering:
        node_of[vertex] = decomposition.add_node(bags[vertex])
    for index, vertex in enumerate(ordering):
        later = bags[vertex] - {vertex}
        if later:
            successor = min(later, key=position.__getitem__)
            decomposition.add_edge(node_of[vertex], node_of[successor])
        elif index + 1 < len(ordering):
            decomposition.add_edge(node_of[vertex], node_of[ordering[index + 1]])
    decomposition.root = node_of[ordering[-1]]
    return decomposition


def ordering_to_ghd(
    hypergraph: Hypergraph,
    ordering: Sequence[Vertex],
    cover: str = "greedy",
    rng: random.Random | None = None,
    solver: ExactSetCoverSolver | None = None,
) -> GeneralizedHypertreeDecomposition:
    """Build the GHD McMahan-style: tree decomposition + per-bag covers.

    The chi-labels come from bucket elimination on the primal graph; each
    lambda-label is a set cover of the bag (greedy or exact). The width of
    the result equals :func:`ordering_ghw` for the same cover mode — and
    both draw covers from the shared cover cache, so building the GHD for
    an ordering whose width was already evaluated re-solves nothing.
    """
    tree = ordering_to_tree_decomposition(hypergraph.primal_graph(), ordering)
    edges = hypergraph.edges()
    ghd = GeneralizedHypertreeDecomposition(tree=tree)
    if cover == "exact":
        active_solver = solver or ExactSetCoverSolver(edges)
        for node in tree.nodes():
            ghd.covers[node] = set(active_solver.cover(tree.bags[node]))
    elif cover == "greedy":
        token = None if rng is not None else edges_token(edges)
        for node in tree.nodes():
            ghd.covers[node] = set(
                _cached_greedy_cover(tree.bags[node], edges, rng, token)
            )
    else:
        raise ValueError(f"unknown cover mode {cover!r}")
    return ghd


def cliques_of_ordering(
    hypergraph: Hypergraph, ordering: Sequence[Vertex]
) -> list[set[Vertex]]:
    """``cliques(sigma, H)`` of Definition 16, in elimination order.

    Computed on the primal graph — the thesis notes the Definition-16
    hypergraph-merging process produces exactly the vertex-elimination
    adjacencies, and this equality is property-tested against
    :meth:`Hypergraph.eliminate`.
    """
    bags = elimination_bags(hypergraph.primal_graph(), ordering)
    return [bags[vertex] for vertex in ordering]


def width_of_cliques(
    hypergraph: Hypergraph, ordering: Sequence[Vertex]
) -> int:
    """``width(sigma, H)`` of Definition 17 with exact covers."""
    return ordering_ghw(hypergraph, ordering, cover="exact")
