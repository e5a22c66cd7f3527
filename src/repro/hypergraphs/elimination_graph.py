"""A graph supporting vertex elimination with exact undo (Section 5.2.1).

The A* and branch-and-bound searches visit search states in an order that
jumps around the elimination tree. Rebuilding "the graph after eliminating
this state's prefix" from scratch for every state would dominate the run
time, so the thesis maintains a *single* graph object that can be
transformed between states by eliminating and restoring vertices.

The thesis keeps that bookkeeping in three matrices (``A``, ``E``,
``T``). :class:`EliminationGraph` keeps its analogue — adjacency, which
vertices are eliminated, and which fill edges each elimination
inserted — as Python ints:

* one adjacency **mask** per vertex, vertices interned once in ``repr``
  order (the tie order of the minor-based lower bounds, so
  :func:`repro.kernels.minor_bound.minor_lower_bound` reads the masks as
  they are);
* an ``alive`` mask of the vertices not yet eliminated;
* an **undo stack** of ``(vertex, index, [(neighbour, fill mask)])``:
  eliminating ``v`` ORs into each neighbour the neighbours it missed and
  clears ``v``'s bit; restoring clears those fill bits and sets ``v``'s
  bit again — byte-for-byte the inverse operation.

An eliminated vertex's own mask is left untouched: no later elimination
can reach it, so on restore it is exactly its neighbourhood again.

Simplicial tests, fill-in counts, PR2 swap-safety and the minor bounds
all run on the masks (:mod:`repro.reductions`, :mod:`repro.bounds`).
:meth:`EliminationGraph.graph` builds a :class:`Graph` snapshot on demand
for everything else.

:meth:`EliminationGraph.switch_to` transforms the graph between two
elimination prefixes sharing a common ancestor, undoing only the
non-shared suffix, exactly the optimisation described at the end of
Section 5.2.1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from functools import cached_property

from repro.hypergraphs.graph import Graph, Vertex, vertex_sort_key


def bits_of(mask: int) -> list[int]:
    """The set bit positions of ``mask``, ascending."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class EliminationGraph:
    """A bitmask graph with an elimination/restore stack.

    Read-only views for mask-native consumers: ``masks[i]`` is the
    adjacency of the vertex ``labels[i]`` (current while it is alive),
    ``index`` maps a vertex to ``i``, ``alive`` has bit ``i`` set while
    ``labels[i]`` is present, and ``key_order`` lists every index by
    :func:`~repro.hypergraphs.graph.vertex_sort_key` (the reduction rules'
    tie-break); ``repr_ends`` closes each index's ``repr`` group (PR2's
    canonical order). Mutate only through :meth:`eliminate`/:meth:`restore`.

    :meth:`vertices` iterates in the order a :class:`Graph` copy would
    after the same ``remove_vertex``/``add_vertex`` calls: eliminating a
    vertex drops it, restoring re-appends it. Seeded heuristics and the
    A* child order depend on that order.
    """

    def __init__(self, graph: Graph) -> None:
        # ``sorted`` is stable: vertices sharing a ``repr`` keep the
        # graph's iteration order, as ``min(..., key=repr)`` would.
        labels = sorted(graph, key=repr)
        index = {vertex: i for i, vertex in enumerate(labels)}
        masks = []
        for vertex in labels:
            mask = 0
            for neighbour in graph.neighbours(vertex):
                mask |= 1 << index[neighbour]
            masks.append(mask)
        self.labels: list[Vertex] = labels
        self.index: dict[Vertex, int] = index
        self.masks: list[int] = masks
        self.alive: int = (1 << len(labels)) - 1
        self.key_order: list[int] = sorted(
            range(len(labels)), key=lambda i: vertex_sort_key(labels[i])
        )
        self._present: dict[Vertex, int] = {vertex: index[vertex] for vertex in graph}
        self._stack: list[tuple[Vertex, int, list[tuple[int, int]]]] = []

    @cached_property
    def repr_ends(self) -> list[int]:
        """``repr_ends[i]`` is one past the last index whose label has the
        ``repr`` of ``labels[i]``: the labels whose ``repr`` is at most
        ``repr(labels[i])`` are those of ``range(repr_ends[i])``."""
        keys = [repr(vertex) for vertex in self.labels]  # sorted
        return [bisect_right(keys, key) for key in keys]

    # ------------------------------------------------------------------
    # elimination and restoration
    # ------------------------------------------------------------------

    def eliminate(self, vertex: Vertex) -> int:
        """Eliminate ``vertex`` and push an undo record.

        Returns the mask of the neighbours of ``vertex`` at elimination
        time; the bag produced by this elimination step is those
        vertices plus ``vertex`` itself.
        """
        i = self._present.pop(vertex)
        masks = self.masks
        neighbours = rest = masks[i]
        bit = 1 << i
        fills: list[tuple[int, int]] = []
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            row = masks[u]
            # ``neighbours & ~row`` holds ``u`` itself (no loops): drop it.
            fill = (neighbours & ~row) ^ low
            masks[u] = (row | fill) ^ bit
            fills.append((u, fill))
        self.alive ^= bit
        self._stack.append((vertex, i, fills))
        return neighbours

    def last_record(self) -> tuple[Vertex, int, list[tuple[int, int]]]:
        """The undo record of the most recent elimination:
        ``(vertex, index, [(neighbour index, fill mask)])``."""
        return self._stack[-1]

    def restore(self) -> Vertex:
        """Undo the most recent elimination; return the restored vertex."""
        if not self._stack:
            raise IndexError("no elimination to restore")
        vertex, i, fills = self._stack.pop()
        masks = self.masks
        bit = 1 << i
        for u, fill in fills:
            masks[u] = (masks[u] & ~fill) | bit
        self.alive |= bit
        self._present[vertex] = i
        return vertex

    def restore_all(self) -> None:
        """Undo every elimination, returning to the original graph."""
        while self._stack:
            self.restore()

    def switch_to(self, prefix: Sequence[Vertex]) -> None:
        """Transform the graph to the state after eliminating ``prefix``.

        Restores eliminated vertices until the current elimination history
        is a prefix of ``prefix``, then eliminates the missing tail. When
        consecutive search states share a long common prefix this touches
        only the differing suffix.
        """
        shared = 0
        for (done, _i, _fills), wanted in zip(self._stack, prefix):
            if done != wanted:
                break
            shared += 1
        while len(self._stack) > shared:
            self.restore()
        for vertex in prefix[shared:]:
            self.eliminate(vertex)

    # ------------------------------------------------------------------
    # queries (answered from the masks)
    # ------------------------------------------------------------------

    def eliminated(self) -> list[Vertex]:
        """The elimination prefix applied so far, in order."""
        return [vertex for vertex, _i, _fills in self._stack]

    def graph(self) -> Graph:
        """A fresh :class:`Graph` snapshot of the remaining graph.

        Vertices are added in :meth:`vertices` order; later eliminations
        do not change the snapshot.
        """
        labels = self.labels
        snapshot = Graph(vertices=self._present)
        for vertex, i in self._present.items():
            for j in bits_of(self.masks[i] >> (i + 1)):
                snapshot.add_edge(vertex, labels[i + 1 + j])
        return snapshot

    snapshot = graph

    def vertices(self) -> set[Vertex]:
        """A fresh set of the remaining vertices."""
        return set(self._present)

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        """A fresh set of the current neighbours of ``vertex``."""
        labels = self.labels
        return {labels[u] for u in bits_of(self.masks[self._present[vertex]])}

    def degree(self, vertex: Vertex) -> int:
        return self.masks[self._present[vertex]].bit_count()

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i = self._present.get(u)
        j = self.index.get(v)
        return i is not None and j is not None and bool(self.masks[i] >> j & 1)

    def fill_in(self, vertex: Vertex) -> int:
        """Number of edges that eliminating ``vertex`` would insert."""
        masks = self.masks
        neighbours = masks[self._present[vertex]]
        # Each neighbour misses itself plus its non-adjacent neighbours;
        # every missing edge is seen from both ends.
        missing = 0
        for u in bits_of(neighbours):
            missing += (neighbours & ~masks[u]).bit_count() - 1
        return missing // 2

    def num_vertices(self) -> int:
        return len(self._present)

    def __len__(self) -> int:
        return len(self._present)


def as_elimination_graph(graph: Graph | EliminationGraph) -> EliminationGraph:
    """``graph`` itself if it is an :class:`EliminationGraph`, else one
    interned from it (the plain-:class:`Graph` entry of the mask-native
    queries)."""
    if isinstance(graph, EliminationGraph):
        return graph
    return EliminationGraph(graph)


def eliminate_sequence(graph: Graph, ordering: Iterable[Vertex]) -> list[set[Vertex]]:
    """Eliminate ``ordering`` from a copy of ``graph``; return the bags.

    The i-th returned set is ``{v_i} | N(v_i)`` at elimination time — the
    chi-label of the bucket for ``v_i`` (Figure 2.12). The thesis
    eliminates from the *end* of an ordering; callers are expected to pass
    the ordering in elimination order (i.e. already reversed if needed).
    """
    working = EliminationGraph(graph)
    labels = working.labels
    bags: list[set[Vertex]] = []
    for vertex in ordering:
        neighbours = {labels[u] for u in bits_of(working.eliminate(vertex))}
        bags.append({vertex} | neighbours)
    return bags
