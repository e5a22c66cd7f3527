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
loops intern once. :func:`ordering_width` and :func:`ordering_ghw` run
on the kernel too (the pure-Python loops are the test oracle in
``tests/reference.py``); hot loops should build a kernel evaluator once
via :mod:`repro.kernels.evaluators` instead of paying the per-call
interning here.

:func:`ordering_ghw` and :func:`ordering_to_ghd` each intern the
hypergraph to one :class:`~repro.kernels.BitHypergraph` and cover its
bag masks in edge indices: exact covers through one
:class:`~repro.setcover.exact.ExactSetCoverSolver` per call,
deterministic greedy covers through that call's ``BitHypergraph.covers``
memo. Nothing is shared between calls, so :func:`ordering_to_ghd`
solves again what :func:`ordering_ghw` solved; only the GHD's
lambda-labels are edge names.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence, Set as AbstractSet
from functools import partial

from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cover import cover_mask, greedy_cover_mask
from repro.kernels.elimination import bit_elimination_bags, bit_ordering_width
from repro.setcover.exact import ExactSetCoverSolver

# The benchmark's layer tracer wraps this binding.
from repro.setcover.greedy import greedy_set_cover  # noqa: F401


def _check_ordering(
    vertices: AbstractSet[Vertex], ordering: Sequence[Vertex]
) -> None:
    """Reject orderings that are not permutations of ``vertices``.

    One pass over the ordering; the error names the offending vertex so
    callers can see *which* duplicate/unknown/missing vertex broke it.
    The kernel checks every ordering it runs on, so this runs only once
    the kernel has rejected one.
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
    try:
        bags = bit_elimination_bags(graph, [index[v] for v in ordering])
    except (KeyError, ValueError):
        # The kernel only says that the ordering is bad; name the vertex.
        _check_ordering(index.keys(), ordering)
        raise
    return dict(zip(ordering, bags))


def ordering_width(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """Width of the tree decomposition induced by ``ordering``.

    Equals ``max |bag| - 1``, evaluated on the bitmask kernel
    (:func:`~repro.kernels.elimination.bit_ordering_width`) with the
    early exit of Figure 6.2: once the running width reaches the number
    of remaining vertices minus one, no later bag can exceed it.
    """
    bg = BitGraph.from_graph(graph)
    try:
        return bit_ordering_width(bg, bg.order_of(ordering))
    except ValueError:
        _check_ordering(bg.index.keys(), ordering)
        raise


def check_cover(cover: str) -> None:
    """Reject a cover mode other than ``"greedy"`` and ``"exact"``."""
    if cover not in ("greedy", "exact"):
        raise ValueError(f"unknown cover mode {cover!r}")


def _bag_covers(
    bh: BitHypergraph, cover: str, rng: random.Random | None
) -> Callable[[int], tuple[int, ...]]:
    """Bag mask -> edge indices of ``bh`` covering it in mode ``cover``.

    Exact covers come from one solver over ``bh``. Greedy covers with an
    ``rng`` take the thesis's random tie-breaks and are never memoised
    (re-randomisation is part of their semantics); deterministic greedy
    covers go through ``bh.covers``.
    """
    check_cover(cover)
    if cover == "exact":
        return ExactSetCoverSolver(bh).cover
    if rng is not None:
        return partial(greedy_cover_mask, bh, rng=rng)
    return partial(cover_mask, bh)


def ordering_ghw(
    hypergraph: Hypergraph,
    ordering: Sequence[Vertex],
    cover: str = "greedy",
    rng: random.Random | None = None,
) -> int:
    """Cover width of ``ordering``: ``width(sigma, H)`` of Definition 17.

    Every elimination bag is covered with hyperedges of ``hypergraph``;
    the maximum cover size over all bags is returned. With
    ``cover="exact"`` this is the exact quantity whose minimum over all
    orderings equals ``ghw(H)`` (Theorem 3); with ``cover="greedy"`` it is
    the upper bound GA-ghw optimises (Figure 7.1). Bags and covers run
    on the bitmask kernel. Greedy covers with an ``rng`` draw from it
    exactly as the thesis's loop does. A ``cover`` other than
    ``"greedy"`` and ``"exact"`` raises ``ValueError`` before any bag is
    covered.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    covers = _bag_covers(bh, cover, rng)
    return max(
        (len(covers(bag)) for bag in elimination_bags(bh, ordering).values()),
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
) -> GeneralizedHypertreeDecomposition:
    """Build the GHD McMahan-style: tree decomposition + per-bag covers.

    The chi-labels come from bucket elimination on the primal graph; each
    lambda-label is a set cover of the bag (greedy or exact). The width of
    the result equals :func:`ordering_ghw` for the same cover mode.
    ``cover`` is checked as in :func:`ordering_ghw`.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    covers = _bag_covers(bh, cover, rng)
    tree = ordering_to_tree_decomposition(hypergraph.primal_graph(), ordering)
    ghd = GeneralizedHypertreeDecomposition(tree=tree)
    for node in tree.nodes():
        ghd.covers[node] = set(bh.names_of(covers(bh.mask_of(tree.bags[node]))))
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
