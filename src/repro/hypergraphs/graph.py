"""Mutable undirected graphs with the operations the thesis relies on.

The search algorithms of Schafhauser's thesis (A*-tw, BB-ghw, ...) act on
*regular graphs* — usually the primal graph of a hypergraph — and repeatedly
perform three operations:

* **vertex elimination**: connect all neighbours of a vertex into a clique,
  then remove the vertex (Section 2.5.3),
* **edge contraction**: merge a vertex into a neighbour (used by the
  minor-min-width and minor-gamma_R lower bounds, Figures 4.7 and 4.8),
* **neighbourhood queries**: degrees, adjacency tests, simplicial checks.

:class:`Graph` keeps adjacency as ``dict[vertex, set[vertex]]`` which makes
all of those O(degree). Vertices may be any hashable objects; instance
generators use ints or short strings.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations
from typing import Any

Vertex = Hashable


def vertex_sort_key(vertex: Vertex) -> tuple:
    """The library-wide canonical sort key for vertices.

    Every deterministic vertex tie-break — the simplicial reduction
    rules, the bitset kernels' interning, witness-ordering fallbacks —
    must sort with this one key so the pure-Python and bitset paths pick
    identical vertices. Real numbers order by value (``2`` before
    ``10``), everything else by ``repr``; numbers sort before
    non-numbers so mixed vertex families still have one total order.
    ``bool`` is excluded from the numeric branch because ``True == 1``
    would collide with an integer vertex ``1``.
    """
    if isinstance(vertex, (int, float)) and not isinstance(vertex, bool):
        return (0, vertex, "")
    return (1, 0, repr(vertex))


class Graph:
    """A simple undirected graph (no loops, no parallel edges)."""

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` if not already present."""
        self._adj.setdefault(vertex, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Self-loops are rejected: the decomposition algorithms assume simple
        graphs and a silent loop would corrupt degree-based heuristics.
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raise :class:`KeyError` if absent."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise KeyError(f"edge {{{u!r}, {v!r}}} not in graph") from exc

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges."""
        for neighbour in self._adj.pop(vertex):
            self._adj[neighbour].discard(vertex)

    def add_clique(self, vertices: Iterable[Vertex]) -> None:
        """Pairwise connect ``vertices`` (used when eliminating a vertex)."""
        vertex_list = list(vertices)
        for vertex in vertex_list:
            self.add_vertex(vertex)
        for u, v in combinations(vertex_list, 2):
            self.add_edge(u, v)

    def eliminate(self, vertex: Vertex) -> set[Vertex]:
        """Eliminate ``vertex``: clique its neighbourhood, then remove it.

        Returns the neighbourhood that was turned into a clique, i.e. the
        bag ``chi(B_v) - {v}`` that vertex elimination (Figure 2.12)
        associates with ``vertex``.
        """
        neighbours = set(self._adj[vertex])
        self.add_clique(neighbours)
        self.remove_vertex(vertex)
        return neighbours

    def contract(self, u: Vertex, v: Vertex) -> None:
        """Contract edge ``{u, v}`` by merging ``v`` into ``u``.

        Every neighbour of ``v`` (except ``u``) becomes a neighbour of
        ``u``; ``v`` disappears. This is the minor operation used by the
        lower-bound heuristics of Section 4.4.2.
        """
        adj = self._adj
        if v not in adj[u]:
            raise KeyError(f"cannot contract non-edge {{{u!r}, {v!r}}}")
        # Each set sees the adds and discards it saw as add_edge(u, w)
        # per neighbour w, then remove_vertex(v): a set's iteration
        # order follows its own history, which the seeded lower bounds'
        # draws read.
        merged = adj.pop(v)
        target = adj[u]
        for neighbour in merged:
            if neighbour != u:
                target.add(neighbour)
                row = adj[neighbour]
                row.add(u)
                row.discard(v)
        target.discard(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def vertices(self) -> set[Vertex]:
        """A fresh set of all vertices."""
        return set(self._adj)

    def edges(self) -> set[frozenset[Vertex]]:
        """All edges as 2-element frozensets."""
        seen: set[frozenset[Vertex]] = set()
        for u, neighbours in self._adj.items():
            for v in neighbours:
                seen.add(frozenset((u, v)))
        return seen

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        """A fresh copy of the neighbourhood of ``vertex``."""
        return set(self._adj[vertex])

    def degree(self, vertex: Vertex) -> int:
        return len(self._adj[vertex])

    def min_degree_vertices(self) -> tuple[int, list[Vertex]]:
        """The minimum degree and the vertices of that degree, in
        iteration order. The graph must not be empty."""
        adj = self._adj
        lowest = min(map(len, adj.values()))
        return lowest, [v for v, neighbours in adj.items() if len(neighbours) == lowest]

    def min_degree_neighbours(self, vertex: Vertex) -> list[Vertex]:
        """The neighbours of ``vertex`` of minimum degree, in the order
        :meth:`neighbours` iterates them (a fresh copy can iterate in a
        different order than the set it copies); ``[]`` if isolated."""
        adj = self._adj
        neighbours = set(adj[vertex])
        if not neighbours:
            return []
        lowest = min(map(len, map(adj.__getitem__, neighbours)))
        return [u for u in neighbours if len(adj[u]) == lowest]

    def gamma_r(self, floor: int = 0) -> int:
        """``max(floor, gamma_R)`` for Ramachandramurthi's gamma_R.

        gamma_R is ``n - 1`` on a complete graph, else the smallest
        ``d`` whose vertices of degree at most ``d`` are not a clique
        (the least, over non-adjacent pairs, of the larger degree); 0 on
        the empty graph. It exceeds ``floor`` only if the vertices of
        degree at most ``floor`` form a clique, which is checked first;
        only then are the other vertices ranked by degree.
        """
        adj = self._adj
        n = len(adj)
        if n - 1 <= floor:
            return max(floor, 0)
        low = [v for v, neighbours in adj.items() if len(neighbours) <= floor]
        # A clique of s vertices needs degrees of at least s - 1.
        size = len(low) - 1
        if size > floor:
            return floor
        clique = set(low)
        for vertex in low:
            if len(adj[vertex] & clique) != size:
                return floor
        rest = [v for v, neighbours in adj.items() if len(neighbours) > floor]
        rest.sort(key=lambda vertex: len(adj[vertex]))
        for vertex in rest:
            neighbours = adj[vertex]
            if not clique <= neighbours:
                return len(neighbours)
            clique.add(vertex)
        return n - 1

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self._adj.values()) // 2

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """``True`` iff ``vertices`` are pairwise adjacent."""
        vertex_list = list(vertices)
        return all(
            self.has_edge(u, v) for u, v in combinations(vertex_list, 2)
        )

    def is_simplicial(self, vertex: Vertex) -> bool:
        """A vertex is simplicial if its neighbourhood induces a clique."""
        return self.is_clique(self._adj[vertex])

    def is_almost_simplicial(self, vertex: Vertex) -> bool:
        """All but (at most) one neighbour induce a clique (Definition 23).

        A simplicial vertex is in particular almost simplicial.
        """
        neighbours = list(self._adj[vertex])
        if self.is_clique(neighbours):
            return True
        return any(
            self.is_clique(neighbours[:i] + neighbours[i + 1 :])
            for i in range(len(neighbours))
        )

    def connected_components(self) -> list[set[Vertex]]:
        """Connected components via iterative DFS."""
        remaining = set(self._adj)
        components: list[set[Vertex]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root}
            stack = [root]
            while stack:
                current = stack.pop()
                for neighbour in self._adj[current]:
                    if neighbour not in component:
                        component.add(neighbour)
                        stack.append(neighbour)
            remaining -= component
            components.append(component)
        return components

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``vertices``."""
        keep = set(vertices)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(map(repr, missing))}")
        result = Graph(vertices=keep)
        for vertex in keep:
            for neighbour in self._adj[vertex] & keep:
                result.add_edge(vertex, neighbour)
        return result

    def copy(self) -> "Graph":
        """A deep, independent copy."""
        result = Graph()
        result._adj = {vertex: set(adj) for vertex, adj in self._adj.items()}
        return result

    def fill_in(self, vertex: Vertex) -> int:
        """Number of edges that eliminating ``vertex`` would insert.

        This is the quantity minimised by the min-fill heuristic
        (Section 4.4.2).
        """
        neighbours = list(self._adj[vertex])
        missing = 0
        for u, v in combinations(neighbours, 2):
            if v not in self._adj[u]:
                missing += 1
        return missing

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices()}, |E|={self.num_edges()})"
        )


def complete_graph(n: int) -> Graph:
    """The complete graph K_n on vertices ``0..n-1``."""
    graph = Graph(vertices=range(n))
    graph.add_clique(range(n))
    return graph


def path_graph(n: int) -> Graph:
    """The path P_n on vertices ``0..n-1``."""
    graph = Graph(vertices=range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(n: int) -> Graph:
    """The cycle C_n on vertices ``0..n-1`` (``n >= 3``)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph
