"""A*-ghw: best-first exact generalized hypertree width (Chapter 9).

The best-first counterpart of BB-ghw, built like A*-tw (Chapter 5) on
the ghw ingredients: ``g`` is the largest exact bag-cover size of the
prefix, ``h`` the tw-ksc-width lower bound of the remaining instance, and
``f = max(g, h, f(parent))`` is nondecreasing along paths, so the ``f``
of the last visited state is an anytime ghw *lower bound* — the quantity
Tables 9.1/9.2 report for instances the thesis could not close.

Goal test: once every hyperedge-restricted remainder can be covered
within ``g`` (PR1's certificate, here checked as "the greedy cover of the
whole remainder is at most g"), finishing in any order costs ``g``; the
first such state popped is optimal. The greedy cover runs only when the
size-profile floor of the remainder's cover number is at most ``g``.

As in BB-ghw, bags and the remainder are masks of one hypergraph
interned in the elimination graph's vertex order, and the forced
simplicial vertex and ``h`` are computed once per eliminated set.
"""

from __future__ import annotations

import heapq
import random
from itertools import count

from repro import obs
from repro.bounds.ghw_lower import remainder_cover_floor, tw_ksc_width_remaining
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr2_prune_children, swap_safe_ghw
from repro.reductions.simplicial import find_simplicial
from repro.search.bb_ghw import initial_ghw_incumbent
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    certified,
    interrupted,
)
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover


def astar_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` via best-first search.

    ``control`` attaches the search to a portfolio bound bus exactly as
    in :func:`~repro.search.astar_tw.astar_treewidth`; once external
    pruning has occurred, the returned/published lower bound is capped at
    the smallest external bound ever pruned against.
    """
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = "astar-ghw"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_ub = metrics.counter("prunes", rule="ub", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    if hypergraph.num_vertices() == 0 or hypergraph.num_edges() == 0:
        return _finish(
            certified(0, sorted(hypergraph.vertices(), key=repr), budget, name)
        )

    primal = hypergraph.primal_graph()
    working = EliminationGraph(primal)
    bh = BitHypergraph.from_hypergraph(hypergraph, vertices=working.labels)
    solver = ExactSetCoverSolver(bh)

    with ins.tracer.span(
        name, vertices=hypergraph.num_vertices(), edges=hypergraph.num_edges()
    ):
        with ins.tracer.span("root_bounds"):
            lb = tw_ksc_width_remaining(
                hypergraph, primal, tw_methods=lb_methods, rng=rng
            )
            ub, ub_ordering = initial_ghw_incumbent(hypergraph, solver, rng)
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

        sequence = count()
        heap: list[
            tuple[int, int, int, int, tuple[Vertex, ...], tuple[Vertex, ...], bool]
        ] = []

        # alive -> (forced simplicial vertex, h): both depend only on the
        # eliminated set, never on the order it was eliminated in.
        reduced: dict[int, tuple[Vertex | None, int]] = {}

        root_children = tuple(sorted(primal.vertices(), key=repr))
        root_forced = False
        if use_reductions:
            simplicial = find_simplicial(working)
            if simplicial is not None:
                root_children = (simplicial,)
                root_forced = True
        heapq.heappush(
            heap, (lb, 0, next(sequence), 0, (), root_children, root_forced)
        )

        with ins.tracer.span("search"):
            while heap:
                if budget.exhausted() or (
                    control is not None and control.should_stop()
                ):
                    return _finish(
                        interrupted(proven_lb(), ub, ub_ordering, budget, name)
                    )
                f, neg_depth, _tie, g, prefix, children, forced = heapq.heappop(heap)
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

                # greedy >= floor: a floor above g rules the goal out.
                if remainder_cover_floor(bh, working.alive) <= g and len(
                    greedy_set_cover(working.alive, bh)
                ) <= g:
                    # Goal: any completion's bags stay within the remainder,
                    # whose cover fits in g — the completion has width
                    # exactly g.
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
                    i = working.index[child]
                    child_g = max(
                        g, solver.cover_size((1 << i) | working.masks[i])
                    )
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
                        # Per-node bounds tie on repr (rng=None): only the
                        # root calls consume ``rng``; the bitmask kernel
                        # reads the live masks.
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
                    child_f = max(child_g, h, f)
                    if child_f < effective_ub():
                        heapq.heappush(
                            heap,
                            (
                                child_f,
                                neg_depth - 1,
                                next(sequence),
                                child_g,
                                prefix + (child,),
                                tuple(grandchildren),
                                child_forced,
                            ),
                        )
                    else:
                        prune_ub.inc()
                    working.restore()

        if ext_floor is not None and ext_floor < ub:
            if control is not None:
                control.publish_lower(ext_floor)
            return _finish(
                interrupted(ext_floor, ub, ub_ordering, budget, name)
            )
        if control is not None:
            control.publish_lower(ub)
        return _finish(certified(ub, ub_ordering, budget, name))
