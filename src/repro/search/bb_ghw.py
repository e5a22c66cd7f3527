"""BB-ghw: branch and bound for exact generalized hypertree width (Ch. 8).

The search space is the set of elimination orderings (sound and complete
for ghw by Theorems 2 and 3). A search node is an elimination prefix of
the primal graph; its cost ``g`` is the largest *exact* set-cover size of
any bag produced so far — covers are taken over the original hyperedges,
exactly as in Definition 17. Ingredients, following Chapter 8:

* initial incumbent: best of min-fill / min-degree orderings evaluated
  with greedy covers (Section 2.5.2),
* lower bound ``h``: ``tw-ksc-width`` of the remaining instance
  (Section 8.1) — a treewidth lower bound on the remaining (filled) graph
  chained with a k-set-cover lower bound over the hyperedges restricted
  to the remaining vertices,
* reduction: a simplicial vertex of the current graph is forced as the
  only child (Section 8.2; safe for ghw — see DESIGN.md),
* pruning rule 1 in cover form: finishing immediately costs at most the
  cover number of the whole remainder (Section 8.3),
* pruning rule 2 in its non-adjacent (ghw-safe) form (Section 8.3).

The search interns the hypergraph once, in its elimination graph's
vertex order, so a bag is ``(1 << i) | masks[i]`` and the remainder is
``alive``. Exact covers come from the cover cache keyed on bag masks —
elimination bags repeat massively. The remaining filled graph depends
only on the eliminated *set*, so the forced simplicial vertex and ``h``
are computed once per ``alive`` mask. PR1's greedy remainder cover runs
only when a size-profile floor says it could close the node or improve
the incumbent (see DESIGN.md).
"""

from __future__ import annotations

import random

from repro import obs
from repro.bounds.ghw_lower import remainder_cover_floor, tw_ksc_width_remaining
from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr1_ghw, pr2_prune_children, swap_safe_ghw
from repro.reductions.simplicial import find_simplicial
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    certified,
    interrupted,
)
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover


class _Incumbent:
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


def initial_ghw_incumbent(
    hypergraph: Hypergraph,
    solver: ExactSetCoverSolver,
    rng: random.Random | None = None,
) -> tuple[int, list[Vertex]]:
    """Best heuristic ordering, scored with *exact* covers.

    Greedy covers would also be sound (they only overestimate), but the
    heuristic orderings are few and scoring them exactly gives the search
    a genuinely attainable incumbent. Bags are masks of ``solver.bh``,
    so the covers found here are the cache entries the search reuses.
    """
    from repro.decompositions.elimination import elimination_bags

    primal = hypergraph.primal_graph()
    best_width: int | None = None
    best_ordering: list[Vertex] = []
    for build in (min_fill_ordering, min_degree_ordering):
        ordering = build(primal, rng)
        bags = elimination_bags(solver.bh, ordering)
        width = max(
            (solver.cover_size(bag) for bag in bags.values()), default=0
        )
        if best_width is None or width < best_width:
            best_width = width
            best_ordering = ordering
    assert best_width is not None
    return best_width, best_ordering


def branch_and_bound_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` (or bounds, if interrupted).

    ``control`` attaches the search to a portfolio bound bus exactly as
    in :func:`~repro.search.bb_tw.branch_and_bound_treewidth`: stop
    cooperatively, prune against the portfolio incumbent, publish bound
    improvements and best-so-far checkpoints.
    """
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = "bb-ghw"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr1 = metrics.counter("prunes", rule="pr1", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_incumbent = metrics.counter("prunes", rule="incumbent", solver=name)
    prune_lb = metrics.counter("prunes", rule="lb", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    n = hypergraph.num_vertices()
    if n == 0 or hypergraph.num_edges() == 0:
        return _finish(
            certified(0, sorted(hypergraph.vertices(), key=repr), budget, name)
        )

    primal = hypergraph.primal_graph()
    working = EliminationGraph(primal)
    bh = BitHypergraph.from_hypergraph(hypergraph, vertices=working.labels)
    solver = ExactSetCoverSolver(bh)

    with ins.tracer.span(name, vertices=n, edges=hypergraph.num_edges()):
        with ins.tracer.span("root_bounds"):
            root_lb = tw_ksc_width_remaining(
                hypergraph, primal, tw_methods=lb_methods, rng=rng
            )
            ub_width, ub_ordering = initial_ghw_incumbent(hypergraph, solver, rng)
        incumbent = _Incumbent(ub_width, ub_ordering, control)
        if control is not None:
            control.publish_lower(root_lb)
        if root_lb >= incumbent.width:
            return _finish(
                certified(incumbent.width, incumbent.ordering, budget, name)
            )

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

        # alive -> (forced simplicial vertex, h): both depend only on the
        # eliminated set, never on the order it was eliminated in.
        reduced: dict[int, tuple[Vertex | None, int]] = {}

        def visit(g: int, children: list[Vertex], forced: bool) -> None:
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

            prefix = working.eliminated()
            if working.num_vertices() == 0:
                incumbent.offer(g, list(prefix))
                return

            # PR1 needs the greedy remainder cover only when it could close
            # the node or beat the incumbent; greedy >= floor always.
            floor = remainder_cover_floor(bh, working.alive)
            if floor <= g or floor < incumbent.width:
                remainder = len(greedy_set_cover(working.alive, bh))
                achievable, close = pr1_ghw(g, remainder)
                if achievable < incumbent.width:
                    incumbent.offer(
                        achievable,
                        list(prefix) + sorted(working.vertices(), key=repr),
                    )
                if close:
                    prune_pr1.inc()
                    return

            ranked = sorted(
                children, key=lambda v: (working.degree(v), repr(v))
            )
            for child in ranked:
                if aborted:
                    return
                limit = bound()
                i = working.index[child]
                child_g = max(g, solver.cover_size((1 << i) | working.masks[i]))
                if child_g >= limit:
                    prune_incumbent.inc()
                    continue
                grandchildren = [v for v in working.vertices() if v != child]
                if use_pr2 and not forced:
                    kept = pr2_prune_children(
                        working, child, grandchildren,
                        swap_safe=swap_safe_ghw,
                    )
                    prune_pr2.inc(len(grandchildren) - len(kept))
                    grandchildren = kept
                working.eliminate(child)
                entry = reduced.get(working.alive)
                if entry is None:
                    simplicial = (
                        find_simplicial(working) if use_reductions else None
                    )
                    # Per-node bounds tie on repr (rng=None): only the root
                    # calls consume ``rng``; the bitmask kernel reads the
                    # live masks.
                    h = tw_ksc_width_remaining(
                        bh, working, tw_methods=lb_methods, rng=None
                    )
                    reduced[working.alive] = (simplicial, h)
                else:
                    simplicial, h = entry
                child_forced = simplicial is not None
                if child_forced:
                    grandchildren = [simplicial]
                    forced_total.inc()
                if max(child_g, h) < limit:
                    visit(child_g, grandchildren, child_forced)
                else:
                    prune_lb.inc()
                working.restore()

        root_children = sorted(primal.vertices(), key=repr)
        root_forced = False
        if use_reductions:
            simplicial = find_simplicial(working)
            if simplicial is not None:
                root_children = [simplicial]
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
