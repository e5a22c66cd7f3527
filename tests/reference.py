"""Reference implementations the mask-native code is tested against.

:class:`ReferenceEliminationGraph` is the dict-of-sets elimination graph
with an undo stack that the exact searches used before
:class:`repro.hypergraphs.elimination_graph.EliminationGraph` moved to
bitmasks. It is deliberately naive — every operation goes through
:class:`~repro.hypergraphs.graph.Graph` — so the two can be compared
operation by operation, including the iteration order of
``vertices()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.hypergraphs.graph import Graph, Vertex


@dataclass
class _EliminationRecord:
    """Everything needed to undo one elimination."""

    vertex: Vertex
    neighbours: set[Vertex]
    fill_edges: list[tuple[Vertex, Vertex]] = field(default_factory=list)


class ReferenceEliminationGraph:
    """A :class:`Graph` copy with an elimination/restore stack."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph.copy()
        self._stack: list[_EliminationRecord] = []

    def eliminate(self, vertex: Vertex) -> set[Vertex]:
        neighbours = self._graph.neighbours(vertex)
        record = _EliminationRecord(vertex=vertex, neighbours=neighbours)
        neighbour_list = list(neighbours)
        for i, u in enumerate(neighbour_list):
            for v in neighbour_list[i + 1 :]:
                if not self._graph.has_edge(u, v):
                    self._graph.add_edge(u, v)
                    record.fill_edges.append((u, v))
        self._graph.remove_vertex(vertex)
        self._stack.append(record)
        return neighbours

    def restore(self) -> Vertex:
        if not self._stack:
            raise IndexError("no elimination to restore")
        record = self._stack.pop()
        for u, v in record.fill_edges:
            self._graph.remove_edge(u, v)
        self._graph.add_vertex(record.vertex)
        for neighbour in record.neighbours:
            self._graph.add_edge(record.vertex, neighbour)
        return record.vertex

    def switch_to(self, prefix: Sequence[Vertex]) -> None:
        current = self.eliminated()
        shared = 0
        for done, wanted in zip(current, prefix):
            if done != wanted:
                break
            shared += 1
        while len(self._stack) > shared:
            self.restore()
        for vertex in prefix[shared:]:
            self.eliminate(vertex)

    def eliminated(self) -> list[Vertex]:
        return [record.vertex for record in self._stack]

    def graph(self) -> Graph:
        """The live graph (read-only by convention)."""
        return self._graph

    def vertices(self) -> set[Vertex]:
        return self._graph.vertices()

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        return self._graph.neighbours(vertex)

    def degree(self, vertex: Vertex) -> int:
        return self._graph.degree(vertex)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self._graph.has_edge(u, v)

    def fill_in(self, vertex: Vertex) -> int:
        return self._graph.fill_in(vertex)

    def num_vertices(self) -> int:
        return self._graph.num_vertices()
