"""Graph and hypergraph substrates."""

from repro._lazy import lazy_exports
from repro.hypergraphs.elimination_graph import (
    EliminationGraph,
    eliminate_sequence,
)
from repro.hypergraphs.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.hypergraphs.hypergraph import Hypergraph, from_graph

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "chordal": (
        "fill_in_graph",
        "is_chordal",
        "is_perfect_elimination_ordering",
        "maximum_clique_of_chordal",
        "treewidth_of_chordal",
    ),
})

__all__ = [
    "EliminationGraph",
    "Graph",
    "Hypergraph",
    "complete_graph",
    "cycle_graph",
    "eliminate_sequence",
    "fill_in_graph",
    "is_chordal",
    "is_perfect_elimination_ordering",
    "maximum_clique_of_chordal",
    "treewidth_of_chordal",
    "from_graph",
    "path_graph",
]
