"""Bitset representations of graphs and hypergraphs.

The pure-Python :class:`~repro.hypergraphs.hypergraph.Hypergraph` and
:class:`~repro.hypergraphs.graph.Graph` keep vertex sets as ``set``
objects, which makes every elimination-ordering evaluation allocate and
hash thousands of small sets. The classes here intern vertices and edges
to dense indices once, and from then on every bag, neighbourhood and
hyperedge is a single Python ``int`` used as a bitmask: union is ``|``,
intersection ``&``, cardinality ``int.bit_count()`` — all C-speed
operations on machine words, following the bitmask designs of the
Gottlob–Samer backtracking solver and the HyperBench tooling.

Interning is deterministic (vertices in the library-wide canonical order
of :func:`~repro.hypergraphs.graph.vertex_sort_key`, edges in insertion
order), so the mapping between a structure and its bitset view
is reproducible across processes — which the parallel evaluator relies
on — and round-trips exactly (property-tested).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from repro.hypergraphs.elimination_graph import bits_of
from repro.hypergraphs.graph import Graph, Vertex, vertex_sort_key
from repro.hypergraphs.hypergraph import EdgeName, Hypergraph
from repro.kernels.cache import family_token


class UncoverableError(ValueError):
    """Raised when the target vertices cannot be covered by the edges."""


def uncoverable(missing: Iterable[Vertex]) -> UncoverableError:
    """The error naming the target vertices ``missing`` from every edge."""
    return UncoverableError(
        f"vertices {sorted(map(repr, missing))} appear in no hyperedge"
    )


class BitGraph:
    """A graph interned to indices with bitmask adjacency."""

    def __init__(self, vertices: list[Vertex], nbr_masks: list[int]) -> None:
        self.vertices = vertices
        self.index = {vertex: i for i, vertex in enumerate(vertices)}
        self.nbr_masks = nbr_masks
        self.full_mask = (1 << len(vertices)) - 1

    @classmethod
    def from_graph(cls, graph: Graph) -> "BitGraph":
        vertices = sorted(graph.vertices(), key=vertex_sort_key)
        index = {vertex: i for i, vertex in enumerate(vertices)}
        nbr_masks = [0] * len(vertices)
        for vertex in vertices:
            mask = 0
            for neighbour in graph.neighbours(vertex):
                mask |= 1 << index[neighbour]
            nbr_masks[index[vertex]] = mask
        return cls(vertices, nbr_masks)

    def to_graph(self) -> Graph:
        graph = Graph(vertices=self.vertices)
        for i, mask in enumerate(self.nbr_masks):
            for j in bits_of(mask):
                if j > i:
                    graph.add_edge(self.vertices[i], self.vertices[j])
        return graph

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        mask = 0
        for vertex in vertices:
            mask |= 1 << self.index[vertex]
        return mask

    def vertices_of(self, mask: int) -> set[Vertex]:
        return {self.vertices[i] for i in bits_of(mask)}

    def order_of(self, ordering: Iterable[Vertex]) -> list[int]:
        """Translate a vertex ordering to interned indices."""
        try:
            return [self.index[vertex] for vertex in ordering]
        except KeyError as exc:
            raise ValueError(
                "ordering is not a permutation of the vertices: "
                f"unknown vertex {exc.args[0]!r}"
            ) from exc

    def __repr__(self) -> str:
        return f"BitGraph(|V|={len(self.vertices)})"


class BitHypergraph(BitGraph):
    """A hypergraph interned to indices: edges and bags are bitmasks.

    On top of the primal adjacency masks of :class:`BitGraph` it keeps

    * ``edge_names[i]`` / ``edge_masks[i]`` — the named hyperedges,
    * ``tie_rank[i]`` — the rank of edge ``i`` in ``repr``-sorted name
      order, the deterministic greedy tie-break of
      :func:`~repro.setcover.greedy.greedy_set_cover`,
    * ``incidence_masks[v]`` — per vertex, a bitmask over *edge indices*
      of the hyperedges containing it, so cover search only ever scans
      edges that can still contribute, and
    * ``token`` — the shared cover-cache family token for this edge
      family (see :mod:`repro.kernels.cache`), interned on first use, so
      a family that never reaches the cache keeps no fingerprint there.
    """

    def __init__(
        self,
        vertices: list[Vertex],
        nbr_masks: list[int],
        edge_names: list[EdgeName],
        edge_masks: list[int],
    ) -> None:
        super().__init__(vertices, nbr_masks)
        self.edge_names = edge_names
        self.edge_masks = edge_masks
        ranked = sorted(range(len(edge_names)), key=lambda i: repr(edge_names[i]))
        self.tie_rank = [0] * len(edge_names)
        for rank, i in enumerate(ranked):
            self.tie_rank[i] = rank
        self.incidence_masks = [0] * len(vertices)
        for i, mask in enumerate(edge_masks):
            bit = 1 << i
            for v in bits_of(mask):
                self.incidence_masks[v] |= bit

    @cached_property
    def token(self) -> int:
        return family_token(
            (tuple(self.vertices), tuple(self.edge_names), tuple(self.edge_masks))
        )

    @classmethod
    def from_hypergraph(
        cls, hypergraph: Hypergraph, vertices: Sequence[Vertex] | None = None
    ) -> "BitHypergraph":
        """Intern ``hypergraph``; vertex ``i`` is ``vertices[i]``.

        ``vertices`` must list every vertex of the hypergraph once; by
        default they are ranked by
        :func:`~repro.hypergraphs.graph.vertex_sort_key`. The exact
        searches pass their elimination graph's ``labels`` so that bag
        and ``alive`` masks index both structures alike.
        """
        if vertices is None:
            vertices = sorted(hypergraph.vertices(), key=vertex_sort_key)
        return cls.from_edges(hypergraph.edges(), vertices)

    @classmethod
    def from_edges(
        cls,
        edges: Mapping[EdgeName, Iterable[Vertex]],
        vertices: Sequence[Vertex] | None = None,
    ) -> "BitHypergraph":
        """Intern a ``name -> vertices`` mapping (empty edges allowed).

        Without ``vertices``, the vertices of the edges are ranked by
        :func:`~repro.hypergraphs.graph.vertex_sort_key`.
        """
        members = {name: frozenset(edge) for name, edge in edges.items()}
        if vertices is None:
            vertices = sorted(
                set().union(*members.values()), key=vertex_sort_key
            )
        vertices = list(vertices)
        index = {vertex: i for i, vertex in enumerate(vertices)}
        edge_masks: list[int] = []
        nbr_masks = [0] * len(vertices)
        for edge in members.values():
            mask = 0
            for vertex in edge:
                mask |= 1 << index[vertex]
            edge_masks.append(mask)
            for i in bits_of(mask):
                nbr_masks[i] |= mask
        for i in range(len(vertices)):
            nbr_masks[i] &= ~(1 << i)
        return cls(vertices, nbr_masks, list(members), edge_masks)

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(
            edges={
                name: self.vertices_of(mask)
                for name, mask in zip(self.edge_names, self.edge_masks)
            },
            vertices=self.vertices,
        )

    def bag_mask(self, target: Iterable[Vertex]) -> int:
        """The mask of the vertex set ``target``, to be covered.

        A vertex outside the family raises :class:`UncoverableError`,
        naming it with every other target vertex that no edge holds.
        """
        target = set(target)
        index = self.index
        if not index.keys() >= target:
            incidence = self.incidence_masks
            raise uncoverable(
                vertex for vertex in target
                if vertex not in index or not incidence[index[vertex]]
            )
        return self.mask_of(target)

    def names_of(self, edge_indices: Iterable[int]) -> list[EdgeName]:
        return [self.edge_names[i] for i in edge_indices]

    def __repr__(self) -> str:
        return (
            f"BitHypergraph(|V|={len(self.vertices)}, "
            f"|H|={len(self.edge_masks)})"
        )
