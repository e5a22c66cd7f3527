"""Benchmark instance generators and the named registry."""

from repro._lazy import lazy_exports
from repro.instances.dimacs_like import (
    grid_graph,
    mycielski_graph,
    queen_graph,
    random_gnm,
    random_gnp,
)
from repro.instances.hypergraphs import (
    adder,
    bridge,
    clique_hypergraph,
    grid2d,
    grid3d,
    random_circuit,
    random_csp_hypergraph,
)
from repro.instances.registry import (
    graph_instance,
    hypergraph_instance,
    instance,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "hyperbench": ("format_hg", "parse_hg", "read_hg", "write_hg"),
})

__all__ = [
    "adder",
    "bridge",
    "clique_hypergraph",
    "format_hg",
    "graph_instance",
    "grid2d",
    "grid3d",
    "grid_graph",
    "hypergraph_instance",
    "instance",
    "mycielski_graph",
    "parse_hg",
    "queen_graph",
    "random_circuit",
    "random_csp_hypergraph",
    "random_gnm",
    "random_gnp",
    "read_hg",
    "write_hg",
]
