"""Stateful property tests (hypothesis RuleBasedStateMachine).

The elimination graph's eliminate/restore/switch_to trio is the engine
under every exact search; a bookkeeping slip there silently corrupts
widths. The state machine below drives it through arbitrary interleaved
operation sequences against two models — a trivially-correct rebuild
from scratch, and the dict-of-sets :class:`ReferenceEliminationGraph`
driven through the same operations — and checks full graph equality,
the iteration order of ``vertices()`` and every mask-answered query
after every step.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.hypergraphs.elimination_graph import EliminationGraph, bits_of
from repro.hypergraphs.graph import Graph
from repro.instances.dimacs_like import random_gnp
from tests.reference import ReferenceEliminationGraph


def rebuild(graph: Graph, prefix: list) -> Graph:
    """The oracle: re-eliminate the prefix on a fresh copy."""
    fresh = graph.copy()
    for vertex in prefix:
        fresh.eliminate(vertex)
    return fresh


#: Vertex labellings: ints whose repr order differs from their value
#: order, and strings, whose hash (hence set order) varies per process.
LABELS = {"int": lambda i: 8 + i, "str": lambda i: f"v{i}"}


def relabel(graph: Graph, label) -> Graph:
    return Graph(
        vertices=[label(v) for v in graph],
        edges=[(label(u), label(v)) for u, v in map(tuple, graph.edges())],
    )


class EliminationMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 200),
        n=st.integers(2, 9),
        density=st.floats(0.1, 0.9),
        label=st.sampled_from(sorted(LABELS)),
    )
    def setup(self, seed, n, density, label):
        self.base = relabel(random_gnp(n, density, seed=seed), LABELS[label])
        self.working = EliminationGraph(self.base)
        self.reference = ReferenceEliminationGraph(self.base)
        self.prefix: list = []

    @rule(choice=st.integers(0, 10**6))
    def eliminate_some_vertex(self, choice):
        remaining = sorted(self.working.vertices())
        if not remaining:
            return
        vertex = remaining[choice % len(remaining)]
        # ``eliminate`` answers in the working graph's indices.
        labels = self.working.labels
        neighbours = {labels[u] for u in bits_of(self.working.eliminate(vertex))}
        assert neighbours == self.reference.eliminate(vertex)
        self.prefix.append(vertex)

    @rule()
    def restore_one(self):
        if not self.prefix:
            return
        restored = self.working.restore()
        expected = self.prefix.pop()
        assert restored == expected
        assert self.reference.restore() == expected

    @rule(choice=st.integers(0, 10**6), length=st.integers(0, 9))
    def switch_to_random_prefix(self, choice, length):
        vertices = sorted(self.base.vertices())
        # deterministic pseudo-random prefix from the draw
        wanted: list = []
        state = choice
        pool = list(vertices)
        for _ in range(min(length, len(pool))):
            state = (state * 1103515245 + 12345) % (2**31)
            wanted.append(pool.pop(state % len(pool)))
        self.working.switch_to(wanted)
        self.reference.switch_to(wanted)
        self.prefix = list(wanted)

    @invariant()
    def graph_matches_oracle(self):
        if not hasattr(self, "working"):
            return
        assert self.working.graph() == rebuild(self.base, self.prefix)
        assert self.working.eliminated() == self.prefix

    @invariant()
    def queries_match_reference(self):
        if not hasattr(self, "working"):
            return
        working, reference = self.working, self.reference
        # Ordered, not as sets: seeded heuristics and the A* child order
        # iterate vertices() directly.
        assert list(working.vertices()) == list(reference.vertices())
        assert list(working.graph()) == list(reference.graph())
        assert working.num_vertices() == reference.num_vertices()
        live = reference.graph()
        for u in reference.vertices():
            assert working.degree(u) == reference.degree(u)
            assert working.neighbours(u) == reference.neighbours(u)
            assert working.fill_in(u) == live.fill_in(u)
        for u in self.base.vertices():
            for v in self.base.vertices():
                assert working.has_edge(u, v) == reference.has_edge(u, v)


TestEliminationMachine = EliminationMachine.TestCase
TestEliminationMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
