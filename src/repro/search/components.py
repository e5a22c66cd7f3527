"""Component-wise width computation.

Width parameters are maxima over connected components: the treewidth of
a disconnected graph is the largest treewidth of its components, and an
elimination ordering for the whole graph is any concatenation of
per-component orderings. Decomposing per component before searching is
therefore free pruning — each exact search runs on a strictly smaller
instance, and budgets stretch much further.

These wrappers split an instance, run the chosen exact algorithm per
component (sharing one overall budget), and recombine the results into
a single :class:`SearchResult` whose ordering is valid for the whole
instance.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro import obs
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.search.common import SearchResult, attach_metrics

GraphSolver = Callable[..., SearchResult]


def _combine(
    pieces: list[SearchResult],
    algorithm: str,
    budget_exhausted: bool = False,
) -> SearchResult:
    """Max-combine per-component results into one."""
    if not pieces:
        return SearchResult(
            value=0,
            lower_bound=0,
            upper_bound=0,
            optimal=True,
            algorithm=algorithm,
        )
    ordering: list[Vertex] = []
    for piece in pieces:
        ordering.extend(piece.ordering)
    lower = max(piece.lower_bound for piece in pieces)
    upper = max(piece.upper_bound for piece in pieces)
    optimal = all(piece.optimal for piece in pieces)
    nodes = sum(piece.nodes_expanded for piece in pieces)
    elapsed = sum(piece.elapsed for piece in pieces)
    combined = SearchResult(
        value=upper if optimal else None,
        lower_bound=upper if optimal else lower,
        upper_bound=upper,
        ordering=ordering,
        optimal=optimal,
        nodes_expanded=nodes,
        elapsed=elapsed,
        algorithm=f"{algorithm}+components",
        budget_exhausted=budget_exhausted
        or any(piece.budget_exhausted for piece in pieces),
    )
    # The ambient registry saw every per-component run, so its snapshot
    # is already the whole-instance tally.
    return attach_metrics(combined, obs.current().metrics)


def _spend(
    remaining_nodes: int | None, piece: SearchResult, components_left: int
) -> tuple[int | None, bool]:
    """Deduct a component's node spend from the shared budget.

    Returns the remaining budget and whether the budget just ran dry
    with components still waiting — previously the budget was silently
    floored at one node, which hid exhaustion from callers.
    """
    if remaining_nodes is None:
        return None, False
    remaining_nodes = max(0, remaining_nodes - piece.nodes_expanded)
    exhausted = remaining_nodes == 0 and components_left > 0
    if exhausted:
        obs.current().metrics.counter(
            "budget_exhausted", scope="components"
        ).inc()
    return remaining_nodes, exhausted


def _by_components(
    components: list[set[Vertex]],
    piece: Callable[[set[Vertex]], object],
    solver: Callable[..., SearchResult],
    time_limit: float | None,
    node_limit: int | None,
    rng: random.Random | None,
    fallback_name: str,
) -> SearchResult:
    """Run ``solver`` on ``piece(component)`` for every component.

    The node budget is shared across components, largest component first
    so the hard part gets the freshest budget.
    """
    components.sort(key=len, reverse=True)
    pieces: list[SearchResult] = []
    remaining_nodes = node_limit
    exhausted = False
    for index, component in enumerate(components):
        result = solver(
            piece(component),
            time_limit=time_limit,
            node_limit=remaining_nodes,
            rng=rng,
        )
        pieces.append(result)
        remaining_nodes, ran_dry = _spend(
            remaining_nodes, result, len(components) - index - 1
        )
        exhausted = exhausted or ran_dry
    name = pieces[0].algorithm if pieces else fallback_name
    return _combine(pieces, name, budget_exhausted=exhausted)


def treewidth_by_components(
    graph: Graph,
    solver: GraphSolver,
    time_limit: float | None = None,
    node_limit: int | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Run a treewidth ``solver`` per connected component.

    ``solver`` is one of the exact algorithms
    (:func:`repro.search.astar_tw.astar_treewidth` or
    :func:`repro.search.bb_tw.branch_and_bound_treewidth`).
    """
    return _by_components(
        graph.connected_components(), graph.subgraph,
        solver, time_limit, node_limit, rng, "tw",
    )


def ghw_by_components(
    hypergraph: Hypergraph,
    solver: Callable[..., SearchResult],
    time_limit: float | None = None,
    node_limit: int | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Run a ghw ``solver`` per connected component of the hypergraph.

    Components are taken in the primal graph; each sub-hypergraph keeps
    exactly the hyperedges inside its component (hyperedges never span
    components, by definition of the primal graph).
    """

    def piece(component: set[Vertex]) -> Hypergraph:
        names = {
            name
            for name, edge in hypergraph.edges().items()
            if edge & component
        }
        sub = Hypergraph(vertices=component)
        for name in sorted(names, key=repr):
            sub.add_edge(name, hypergraph.edge(name))
        return sub

    return _by_components(
        hypergraph.primal_graph().connected_components(), piece,
        solver, time_limit, node_limit, rng, "ghw",
    )
