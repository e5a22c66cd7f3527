"""A*-tw: best-first exact treewidth (Chapter 5, Figure 5.1).

The branch-and-bound tree over elimination prefixes is searched best-first
with evaluation ``f(n) = max(g(n), h(n), f(parent))`` where ``g`` is the
width of the prefix and ``h`` an admissible treewidth lower bound on the
remaining graph (max of minor-min-width and minor-gamma_R, Section 4.4.2).
Among equal ``f`` the deeper state is preferred, so goals surface early
once the frontier reaches the treewidth level (Section 5.3).

Search-space shrinking follows the thesis exactly: states with
``f >= ub`` are never enqueued; a simplicial or strongly almost
simplicial vertex forces an only child; pruning rule 2 removes
swap-redundant siblings (skipped when the parent's children were forced).

On top of that, duplicate detection (Dow & Korf, "Best-First Search for
Treewidth", 2007): the graph left after a prefix depends only on *which*
vertices it eliminated, so states are keyed on ``EliminationGraph.alive``
and a child whose set was already reached at no higher ``g`` is dropped.
Heap entries made stale by a later, cheaper path to their set are skipped
on pop without charging the node budget. DESIGN.md gives the soundness
argument alongside pruning rule 2 and forcing.

Because ``f`` never decreases along a path, the ``f`` of the last visited
state is an anytime treewidth *lower bound* — interrupting A*-tw yields
``[last f, ub]`` (Section 5.3), which Table 5.1 reports for the instances
the thesis could not finish.
"""

from __future__ import annotations

import heapq
import random
from itertools import count

from repro import obs
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr2_prune_children, swap_safe_treewidth
from repro.reductions.simplicial import find_reduction_vertex
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    certified,
    interrupted,
)


def astar_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute the treewidth of ``graph`` via best-first search.

    Returns a certified :class:`SearchResult` or, when the budget runs
    out, bounds with ``lower_bound`` taken from the A* frontier.

    ``control`` attaches the search to a portfolio bound bus: states are
    additionally pruned against the portfolio incumbent upper bound, the
    anytime frontier lower bound is published as it rises, and the search
    stops cooperatively. Once external pruning has occurred, frontier
    ``f`` values above the external bound no longer prove a lower bound,
    so the published/returned lower bound is capped at the smallest
    external bound ever pruned against.
    """
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = "astar-tw"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_ub = metrics.counter("prunes", rule="ub", solver=name)
    prune_dup = metrics.counter("prunes", rule="dup", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    n = graph.num_vertices()
    if n <= 1:
        return _finish(
            certified(0, sorted(graph.vertices(), key=repr), budget, name)
        )

    with ins.tracer.span(name, vertices=n):
        with ins.tracer.span("root_bounds"):
            lb = treewidth_lower_bound(graph, methods=lb_methods, rng=rng)
            ub, ub_ordering = upper_bound_ordering(graph, "min-fill", rng)
        if control is not None:
            control.publish_lower(lb)
            control.publish_upper(ub, ub_ordering)
        if lb >= ub:
            return _finish(certified(ub, ub_ordering, budget, name))

        ext_floor: int | None = None

        def effective_ub() -> int:
            """Pruning bound: own root ub vs the bus incumbent."""
            nonlocal ext_floor
            if control is not None:
                shared = control.shared_upper_bound()
                if shared is not None and shared < ub:
                    ext_floor = (
                        shared if ext_floor is None else min(ext_floor, shared)
                    )
                    return shared
            return ub

        def proven_lb() -> int:
            """The frontier lb, capped by any external bound pruned against."""
            return lb if ext_floor is None else min(lb, ext_floor)

        working = EliminationGraph(graph)
        index = working.index
        sequence = count()
        # Heap entries: (f, -depth, tiebreak, g, alive, prefix, children,
        # forced); ``alive`` is the entry's remaining-vertex mask.
        heap: list[
            tuple[
                int, int, int, int, int,
                tuple[Vertex, ...], tuple[Vertex, ...], bool,
            ]
        ] = []
        # Lowest ``g`` at which each remaining-vertex set was reached.
        best_g: dict[int, int] = {working.alive: 0}

        root_children = tuple(sorted(graph.vertices(), key=repr))
        root_forced = False
        if use_reductions:
            reduction = find_reduction_vertex(working, lb)
            if reduction is not None:
                root_children = (reduction,)
                root_forced = True
        heapq.heappush(
            heap,
            (
                lb, 0, next(sequence), 0, working.alive,
                (), root_children, root_forced,
            ),
        )

        with ins.tracer.span("search"):
            while heap:
                if budget.exhausted() or (
                    control is not None and control.should_stop()
                ):
                    return _finish(
                        interrupted(proven_lb(), ub, ub_ordering, budget, name)
                    )
                f, neg_depth, _tie, g, alive, prefix, children, forced = (
                    heapq.heappop(heap)
                )
                if g > best_g[alive]:
                    continue  # stale: a cheaper path to this set was queued
                budget.charge()
                nodes_total.inc()
                if f > lb:
                    lb = f
                    if control is not None:
                        control.publish_lower(proven_lb())
                if control is not None:
                    control.checkpoint(
                        {
                            "best_fitness": ub,
                            "best_individual": list(ub_ordering),
                            "lower_bound": proven_lb(),
                            "nodes": budget.nodes,
                        }
                    )
                working.switch_to(prefix)
                remaining = working.num_vertices()

                if g >= remaining - 1:
                    # Goal: finishing in any order yields width exactly g.
                    ordering = list(prefix) + sorted(working.vertices(), key=repr)
                    if ext_floor is not None and ext_floor < g:
                        # States between the external bound and g were
                        # pruned, so g is not certified here — but the
                        # bus witness at ext_floor closes the portfolio.
                        return _finish(
                            interrupted(ext_floor, g, ordering, budget, name)
                        )
                    return _finish(certified(g, ordering, budget, name))

                for child in children:
                    degree = working.degree(child)
                    child_g = max(g, degree)
                    key = alive ^ (1 << index[child])
                    if best_g.get(key, n) <= child_g:
                        prune_dup.inc()
                        continue
                    best_g[key] = child_g
                    grandchildren = [v for v in working.vertices() if v != child]
                    if use_pr2 and not forced:
                        kept = pr2_prune_children(
                            working, child, grandchildren,
                            swap_safe=swap_safe_treewidth,
                        )
                        prune_pr2.inc(len(grandchildren) - len(kept))
                        grandchildren = kept
                    working.eliminate(child)
                    child_forced = False
                    if use_reductions:
                        reduction = find_reduction_vertex(
                            working, max(child_g, lb)
                        )
                        if reduction is not None:
                            grandchildren = [reduction]
                            child_forced = True
                            forced_total.inc()
                    # Per-node bounds tie on repr (rng=None): only the root calls
                    # consume ``rng``; the bitmask kernel reads the live masks.
                    h = treewidth_lower_bound(
                        working, methods=lb_methods, rng=None
                    )
                    child_f = max(child_g, h, f)
                    if child_f < effective_ub():
                        heapq.heappush(
                            heap,
                            (
                                child_f,
                                neg_depth - 1,
                                next(sequence),
                                child_g,
                                key,
                                prefix + (child,),
                                tuple(grandchildren),
                                child_forced,
                            ),
                        )
                    else:
                        prune_ub.inc()
                    working.restore()

        # Every state with f < ub was exhausted: ub is the treewidth —
        # unless pruning used an external bound below ub, in which case
        # exhaustion only proves the optimum is at least that bound.
        if ext_floor is not None and ext_floor < ub:
            if control is not None:
                control.publish_lower(ext_floor)
            return _finish(
                interrupted(ext_floor, ub, ub_ordering, budget, name)
            )
        if control is not None:
            control.publish_lower(ub)
        return _finish(certified(ub, ub_ordering, budget, name))
