"""Branch and bound for exact treewidth (the Section 4.4 baseline).

This is the QuickBB/BB-tw-style algorithm the thesis reviews and compares
against: depth-first search over elimination-ordering prefixes with

* an initial incumbent from the min-fill heuristic,
* per-node lower bounds ``f = max(g, h)`` with ``h`` a minor-based
  treewidth lower bound on the remaining graph,
* pruning rule 1 (finish-now certificates, Section 4.4.5),
* pruning rule 2 (swap-redundant sibling elimination),
* simplicial / strongly almost simplicial forcing (Section 4.4.3),
* a transposition table on the set of remaining vertices: the graph left
  after a prefix depends only on which vertices it eliminated, so a child
  whose set was already exhausted at no higher ``g`` is skipped (sound
  because the pruning threshold only tightens; DESIGN.md has the
  argument alongside pruning rule 2 and forcing).

The search walks a single :class:`EliminationGraph` with undo, so moving
between search nodes costs only the differing suffix.
"""

from __future__ import annotations

import random

from repro import obs
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr1_treewidth, pr2_prune_children, swap_safe_treewidth
from repro.reductions.simplicial import find_reduction_vertex
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    certified,
    interrupted,
)


class _Incumbent:
    """Best complete ordering found so far.

    When a :class:`SolverControl` is attached, improvements are published
    to it (the portfolio's bound bus) as they happen.
    """

    def __init__(
        self,
        width: int,
        ordering: list[Vertex],
        control: SolverControl | None = None,
    ) -> None:
        self.width = width
        self.ordering = ordering
        self.control = control
        if control is not None:
            control.publish_upper(width, ordering)

    def offer(self, width: int, ordering: list[Vertex]) -> None:
        if width < self.width:
            self.width = width
            self.ordering = ordering
            if self.control is not None:
                self.control.publish_upper(width, ordering)


def branch_and_bound_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute the treewidth of ``graph`` (or bounds, if interrupted).

    ``control`` attaches the search to a portfolio bound bus: the search
    stops cooperatively when the control says so, prunes against the
    portfolio-wide incumbent upper bound, publishes its own incumbent and
    proven lower bounds, and offers best-so-far checkpoints. When the
    search exhausts while pruning against an external bound below its own
    incumbent, the result is an ``interrupted`` bracket whose lower bound
    equals that external bound — the matching witness lives elsewhere on
    the bus, so the portfolio (not this worker) certifies optimality.
    """
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = "bb-tw"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr1 = metrics.counter("prunes", rule="pr1", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_incumbent = metrics.counter("prunes", rule="incumbent", solver=name)
    prune_lb = metrics.counter("prunes", rule="lb", solver=name)
    prune_dup = metrics.counter("prunes", rule="dup", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    n = graph.num_vertices()
    if n == 0:
        return _finish(certified(0, [], budget, name))
    if n == 1:
        return _finish(certified(0, list(graph.vertices()), budget, name))

    with ins.tracer.span(name, vertices=n):
        with ins.tracer.span("root_bounds"):
            root_lb = treewidth_lower_bound(graph, methods=lb_methods, rng=rng)
            ub_width, ub_ordering = upper_bound_ordering(graph, "min-fill", rng)
        incumbent = _Incumbent(ub_width, ub_ordering, control)
        if control is not None:
            control.publish_lower(root_lb)
        if root_lb >= incumbent.width:
            return _finish(
                certified(incumbent.width, incumbent.ordering, budget, name)
            )

        working = EliminationGraph(graph)
        index = working.index
        # Remaining-vertex set -> lowest ``g`` at which its subtree was
        # exhausted (finished without abort, or cut by the lower bound).
        exhausted: dict[int, int] = {}
        aborted = False
        ext_floor: int | None = None

        def bound() -> int:
            """Effective pruning bound: own incumbent vs the bus incumbent."""
            nonlocal ext_floor
            if control is not None:
                shared = control.shared_upper_bound()
                if shared is not None and shared < incumbent.width:
                    ext_floor = (
                        shared if ext_floor is None else min(ext_floor, shared)
                    )
                    return shared
            return incumbent.width

        def visit(g: int, children: list[Vertex], forced: bool) -> None:
            """Depth-first expansion; ``children`` were computed by the parent
            (so PR2 could consult the pre-elimination graph)."""
            nonlocal aborted
            if (
                aborted
                or budget.exhausted()
                or (control is not None and control.should_stop())
            ):
                aborted = True
                return
            budget.charge()
            nodes_total.inc()
            if control is not None:
                control.checkpoint(
                    {
                        "best_fitness": incumbent.width,
                        "best_individual": list(incumbent.ordering),
                        "lower_bound": root_lb,
                        "nodes": budget.nodes,
                    }
                )

            remaining = working.num_vertices()
            prefix = working.eliminated()
            if remaining == 0:
                incumbent.offer(g, list(prefix))
                return

            achievable, close = pr1_treewidth(g, remaining)
            if achievable < incumbent.width:
                incumbent.offer(
                    achievable, list(prefix) + sorted(working.vertices(), key=repr)
                )
            if close:
                prune_pr1.inc()
                return

            # Order children cheapest-degree-first: good solutions early
            # tighten the incumbent for the remaining siblings.
            ranked = sorted(
                children, key=lambda v: (working.degree(v), repr(v))
            )
            for child in ranked:
                if aborted:
                    return
                limit = bound()
                degree = working.degree(child)
                child_g = max(g, degree)
                if child_g >= limit:
                    prune_incumbent.inc()
                    continue
                key = working.alive ^ (1 << index[child])
                if exhausted.get(key, n) <= child_g:
                    prune_dup.inc()
                    continue
                grandchildren = [
                    v for v in working.vertices() if v != child
                ]
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
                        working, max(child_g, root_lb)
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
                if max(child_g, h) < limit:
                    visit(child_g, grandchildren, child_forced)
                else:
                    prune_lb.inc()
                # An aborted search unwinds without reading the table again.
                exhausted[key] = child_g
                working.restore()

        root_children = sorted(graph.vertices(), key=repr)
        root_forced = False
        if use_reductions:
            reduction = find_reduction_vertex(working, root_lb)
            if reduction is not None:
                root_children = [reduction]
                root_forced = True
        with ins.tracer.span("search"):
            visit(0, root_children, root_forced)

        if aborted:
            return _finish(
                interrupted(
                    root_lb, incumbent.width, incumbent.ordering, budget, name
                )
            )
        if ext_floor is not None and ext_floor < incumbent.width:
            # Exhausted while pruning against a portfolio bound below our
            # own incumbent: optimum >= that bound is proven here, the
            # matching witness lives elsewhere on the bus.
            final_lb = max(root_lb, ext_floor)
            if control is not None:
                control.publish_lower(final_lb)
            return _finish(
                interrupted(
                    final_lb, incumbent.width, incumbent.ordering, budget, name
                )
            )
        if control is not None:
            control.publish_lower(incumbent.width)
        return _finish(
            certified(incumbent.width, incumbent.ordering, budget, name)
        )
