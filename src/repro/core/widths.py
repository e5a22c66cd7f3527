"""One table of width measures.

Treewidth and generalized hypertree width are computed the same way:
elimination orderings, the witness decompositions they induce, and
certificates checking a claim against its witness. :data:`WIDTHS` maps a
measure name to a :class:`Width` holding what differs, for every caller
(the API, the CLI, the experiment runner, the portfolio, the conformance
matrix, the heuristics). A new measure adds one row here plus its
``(kind, measure)`` rows in :data:`repro.core.solvers.SOLVERS`.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro._lazy import resolve
from repro.decompositions.elimination import (
    ordering_to_ghd,
    ordering_to_tree_decomposition,
)
from repro.decompositions.ghd import make_complete
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.evaluators import make_bit_ghw_evaluator, make_tw_evaluator

Instance = Graph | Hypergraph
Evaluator = Callable[[Sequence[Vertex]], int]


@dataclass(frozen=True)
class Width:
    """A row of :data:`WIDTHS`; hooks but ``prepare`` take prepared instances."""

    name: str
    deterministic: bool
    """The heuristics' fitness has no ties to break: their claims equal
    their witnesses' widths, and runs differing only in ``jobs`` agree."""

    prepare: Callable[[Instance], Instance]
    """The instance the measure's solvers take."""

    check: Callable[[Instance], None]
    """Raise ``ValueError`` where the measure is undefined."""

    pieces: Callable[[Instance], list]
    """The per-component sub-instances; the width is their maximum."""

    fitness: Callable[[Instance, random.Random], Evaluator]
    """An ordering's width as the heuristics score it in-process."""

    pool_fitness: Callable[[Instance], Evaluator]
    """The same with deterministic ties, for pool workers (no shared rng)."""

    decompose: Callable[[Instance, list], object]
    """The validated witness decomposition of an ordering."""

    write: Callable[[object, str], None]
    """Write a ``decompose`` result to a path."""

    certify: Callable[..., object]
    """``(instance, ordering, claimed_upper, strict=)`` -> ``Certification``."""

    def strict(self, exact: bool) -> bool:
        """Whether a claim must equal its witness's width."""
        return exact or self.deterministic

    def certified(self, instance, ordering, upper, strict: bool) -> bool | None:
        """A RunReport's ``certified``; ``None`` without claim or witness."""
        if upper is None or not ordering:
            return None
        return self.certify(instance, list(ordering), upper, strict=strict).ok


def validate_hypergraph(hypergraph: Hypergraph) -> None:
    """Reject instances whose ghw is undefined (uncovered vertices)."""
    covered: set[Vertex] = set()
    for edge in hypergraph.edge_sets():
        covered |= edge
    isolated = hypergraph.vertices() - covered
    if isolated:
        raise ValueError(
            "ghw is undefined: vertices appear in no hyperedge: "
            f"{sorted(map(repr, isolated))}"
        )


def _primal(instance: Instance) -> Graph:
    if isinstance(instance, Hypergraph):
        return instance.primal_graph()
    return instance


def _hypergraph(instance: Instance) -> Hypergraph:
    if not isinstance(instance, Hypergraph):
        raise ValueError("ghw needs a hypergraph instance")
    return instance


def _hypergraph_pieces(hypergraph: Hypergraph) -> list[Hypergraph]:
    """Per primal-graph component, the sub-hypergraph of its hyperedges."""
    pieces = []
    for part in hypergraph.primal_graph().connected_components():
        piece = Hypergraph(vertices=part)
        names = [n for n, edge in hypergraph.edges().items() if edge & part]
        for name in sorted(names, key=repr):
            piece.add_edge(name, hypergraph.edge(name))
        pieces.append(piece)
    return pieces


def _ghw_fitness(hypergraph: Hypergraph, rng: random.Random) -> Evaluator:
    # Imported here: the heuristics import this table through
    # ``genetic.problem``.
    from repro.genetic.ga_ghw import make_ghw_evaluator

    return make_ghw_evaluator(hypergraph, rng=rng)


def _tree_decomposition(graph: Graph, ordering: list):
    decomposition = ordering_to_tree_decomposition(graph, ordering)
    decomposition.validate(graph)
    return decomposition


def _complete_ghd(hypergraph: Hypergraph, ordering: list):
    ghd = ordering_to_ghd(hypergraph, ordering, cover="exact")
    ghd = make_complete(ghd, hypergraph)
    ghd.validate(hypergraph)
    return ghd


def _on_call(path: str) -> Callable[..., object]:
    """The function a ``"module:attribute"`` path names, imported when
    first called: the writers and the certifiers serve only some runs,
    and ``repro.verify.certify`` imports this table."""

    def call(*args, **kwargs):
        return resolve(path)(*args, **kwargs)

    return call


#: Every width measure with orderings and solver rows, by name.
WIDTHS: dict[str, Width] = {
    "tw": Width(
        name="tw",
        deterministic=True,
        prepare=_primal,
        check=lambda graph: None,
        pieces=lambda graph: [
            graph.subgraph(part) for part in graph.connected_components()
        ],
        fitness=lambda graph, rng: make_tw_evaluator(graph),
        pool_fitness=make_tw_evaluator,
        decompose=_tree_decomposition,
        write=_on_call("repro.decompositions.io:write_tree_decomposition"),
        certify=_on_call("repro.verify.certify:certify_tw_witness"),
    ),
    "ghw": Width(
        name="ghw",
        deterministic=False,
        prepare=_hypergraph,
        check=validate_hypergraph,
        pieces=_hypergraph_pieces,
        fitness=_ghw_fitness,
        pool_fitness=make_bit_ghw_evaluator,
        decompose=_complete_ghd,
        write=_on_call("repro.decompositions.io:write_ghd"),
        certify=_on_call("repro.verify.certify:certify_ghw_witness"),
    ),
}


def lookup_width(measure: str) -> Width:
    """The row of ``measure``; any other name raises ``ValueError``."""
    row = WIDTHS.get(measure)
    if row is None:
        raise ValueError(f"measure must be {' or '.join(map(repr, WIDTHS))}")
    return row
