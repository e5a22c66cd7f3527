"""Component-wise width computation.

Width parameters are maxima over connected components: the treewidth of
a disconnected graph is the largest treewidth of its components, and an
elimination ordering for the whole graph is any concatenation of
per-component orderings. Decomposing per component before searching is
therefore free pruning — each exact search runs on a strictly smaller
instance, and budgets stretch much further.

:func:`by_components` splits an instance into the pieces its measure's
row names, runs the chosen exact algorithm per piece (sharing one
overall budget), and recombines the results into a single
:class:`SearchResult` whose ordering is valid for the whole instance.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import partial

from repro import obs
from repro.core.widths import WIDTHS, Width
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
    # The rule of a single search (``common.interrupted``): bounds that
    # meet certify the width, even where a narrower piece stopped short.
    optimal = lower >= upper
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


def by_components(
    width: Width,
    instance: Graph | Hypergraph,
    solver: GraphSolver,
    time_limit: float | None = None,
    node_limit: int | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Run the exact ``solver`` of measure ``width`` on every piece of
    ``instance`` (:attr:`~repro.core.widths.Width.pieces`).

    The node budget is shared across pieces, largest piece first so the
    hard part gets the freshest budget.
    """
    pieces = sorted(
        width.pieces(instance), key=lambda piece: piece.num_vertices(), reverse=True
    )
    results: list[SearchResult] = []
    remaining_nodes = node_limit
    exhausted = False
    for index, piece in enumerate(pieces):
        result = solver(
            piece, time_limit=time_limit, node_limit=remaining_nodes, rng=rng
        )
        results.append(result)
        remaining_nodes, ran_dry = _spend(
            remaining_nodes, result, len(pieces) - index - 1
        )
        exhausted = exhausted or ran_dry
    name = results[0].algorithm if results else width.name
    return _combine(results, name, budget_exhausted=exhausted)


#: :func:`by_components` for an exact treewidth solver, and for an exact
#: ghw solver (one sub-hypergraph per primal-graph component).
treewidth_by_components = partial(by_components, WIDTHS["tw"])
ghw_by_components = partial(by_components, WIDTHS["ghw"])
