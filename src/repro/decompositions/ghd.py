"""Generalized hypertree decompositions (Definitions 12-14, Lemma 2).

A generalized hypertree decomposition (GHD) of a hypergraph ``H`` is a
tree decomposition whose every bag ``chi(p)`` is additionally *covered* by
a set ``lambda(p)`` of hyperedges of ``H`` (``chi(p) <= var(lambda(p))``).
Its width is ``max |lambda(p)|`` — the number of constraints per
subproblem, which measures CSP subproblem complexity more faithfully than
bag size. The minimum width over all GHDs is the *generalized hypertree
width* ``ghw(H)``, and ``ghw(H) <= hw(H) <= tw(H) + 1``-style inequalities
make it the strongest of the three measures.

A GHD is *complete* if every hyperedge ``h`` has a node with
``h <= chi(p)`` and ``h in lambda(p)``; completeness is what lets the CSP
solver place every constraint (Definition 14). :func:`make_complete`
implements the logspace transformation of Lemma 2 by grafting one leaf
per uncovered hyperedge.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.decompositions.tree_decomposition import (
    DecompositionError,
    TreeDecomposition,
)
from repro.hypergraphs.hypergraph import EdgeName, Hypergraph
from repro.hypergraphs.graph import Vertex


@dataclass
class GeneralizedHypertreeDecomposition:
    """A tree decomposition plus lambda-labels (hyperedge covers)."""

    tree: TreeDecomposition = field(default_factory=TreeDecomposition)
    covers: dict[int, set[EdgeName]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        bag: Iterable[Vertex],
        cover: Iterable[EdgeName],
        node: int | None = None,
    ) -> int:
        node = self.tree.add_node(bag, node=node)
        self.covers[node] = set(cover)
        return node

    def add_edge(self, a: int, b: int) -> None:
        self.tree.add_edge(a, b)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes(self) -> list[int]:
        return self.tree.nodes()

    def bag(self, node: int) -> set[Vertex]:
        return self.tree.bags[node]

    def cover(self, node: int) -> set[EdgeName]:
        return self.covers[node]

    def width(self) -> int:
        """``max |lambda(p)|`` over all nodes (0 for the empty GHD)."""
        return max((len(cover) for cover in self.covers.values()), default=0)

    def copy(self) -> "GeneralizedHypertreeDecomposition":
        return GeneralizedHypertreeDecomposition(
            tree=self.tree.copy(),
            covers={node: set(cov) for node, cov in self.covers.items()},
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self, hypergraph: Hypergraph) -> None:
        """Raise :class:`DecompositionError` unless all three conditions of
        Definition 13 hold."""
        self.tree.validate(hypergraph)
        if set(self.covers) != set(self.tree.bags):
            raise DecompositionError("lambda labels out of sync with tree")
        edges = hypergraph.edges()
        for node, cover in self.covers.items():
            unknown = [name for name in cover if name not in edges]
            if unknown:
                raise DecompositionError(
                    f"node {node} covers with unknown hyperedges {unknown}"
                )
            covered: set[Vertex] = set()
            for name in cover:
                covered |= edges[name]
            if not self.tree.bags[node] <= covered:
                raise DecompositionError(
                    f"chi({node}) not contained in var(lambda({node}))"
                )

    def realised_edges(self, hypergraph: Hypergraph) -> set[EdgeName]:
        """Hyperedges realised at some node: ``h in lambda(p)`` and
        ``h <= chi(p)`` (the Definition 14 condition, per edge).

        Raises :class:`DecompositionError` when the lambda-labels are out
        of sync with the tree, naming the offending nodes, instead of
        surfacing a bare ``KeyError`` from the cover lookup.
        """
        out_of_sync = set(self.covers) ^ set(self.tree.bags)
        if out_of_sync:
            raise DecompositionError(
                "lambda labels out of sync with tree at nodes "
                f"{sorted(out_of_sync)}: every tree node needs exactly "
                "one cover"
            )
        edges = hypergraph.edges()
        realised: set[EdgeName] = set()
        for node, cover in self.covers.items():
            bag = self.tree.bags[node]
            for name in cover:
                if name in realised:
                    continue
                edge = edges.get(name)
                if edge is not None and edge <= bag:
                    realised.add(name)
        return realised

    def is_complete(self, hypergraph: Hypergraph) -> bool:
        """Definition 14: every hyperedge realised at some node."""
        return self.realised_edges(hypergraph) == set(hypergraph.edges())

    def __repr__(self) -> str:
        return (
            f"GHD(nodes={self.tree.num_nodes()}, width={self.width()})"
        )


def make_complete(
    ghd: GeneralizedHypertreeDecomposition, hypergraph: Hypergraph
) -> GeneralizedHypertreeDecomposition:
    """Lemma 2: turn a GHD into a *complete* GHD of the same width.

    For every hyperedge ``h`` not yet realised, a fresh leaf with
    ``chi = h`` and ``lambda = {h}`` is attached to a node whose bag
    contains ``h`` (such a node exists by condition 1). The new leaves
    have ``|lambda| = 1``, so the width is unchanged (every hypergraph
    with at least one edge has ghw >= 1).
    """
    result = ghd.copy()
    edges = hypergraph.edges()
    realised = result.realised_edges(hypergraph)
    for name, edge in edges.items():
        if name in realised:
            continue
        host = next(
            (
                node
                for node in result.tree.nodes()
                if edge <= result.tree.bags[node]
            ),
            None,
        )
        if host is None:
            raise DecompositionError(
                f"hyperedge {name!r} fits in no bag; GHD is invalid"
            )
        leaf = result.add_node(edge, {name})
        result.add_edge(host, leaf)
    return result


def exact_cover_width(
    ghd: GeneralizedHypertreeDecomposition, hypergraph: Hypergraph
) -> int:
    """Recompute the width with exact minimum covers per bag.

    A GHD built with greedy covers may label bags with more hyperedges
    than necessary; this utility reports the width the same tree would
    have under optimal lambda-labels. One solver covers every bag, in
    the interning :func:`~repro.decompositions.elimination.ordering_to_ghd`
    uses, so covers it already solved come from the cover cache. Import
    is deferred to avoid a package cycle (setcover depends on
    hypergraphs only).
    """
    from repro.kernels.bithypergraph import BitHypergraph
    from repro.setcover.exact import ExactSetCoverSolver

    cover = ExactSetCoverSolver(BitHypergraph.from_hypergraph(hypergraph)).cover
    return max(
        (len(cover(ghd.tree.bags[node])) for node in ghd.tree.nodes()),
        default=0,
    )
