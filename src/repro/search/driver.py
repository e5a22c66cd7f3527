"""One depth-first and one best-first search over elimination orderings.

BB-tw and A*-tw (Chapters 4-5) and BB-ghw and A*-ghw (Chapters 8-9) run
the same algorithm over elimination-ordering prefixes, which Theorems 2
and 3 make complete for ghw too. What differs is the width measure, so
:func:`branch_and_bound` and :func:`astar` take a :class:`Measure` and
own everything else: the incumbent and the portfolio bound bus, the
budget, checkpoints, counters, spans and the exit brackets.

A measure walks one live :class:`EliminationGraph` (``working``) and
supplies six hooks:

* ``root_bounds(rng)`` -> ``(lb, ub, ordering)``, the only calls that
  consume ``rng``;
* ``reduce(low)``: the vertex forced at the root (``None`` if none);
* ``bag_cost(child)``: the cost of eliminating ``child`` next;
* ``expand(low)`` -> ``(forced, h)`` after a child was eliminated: the
  vertex forced next and a lower bound on the remaining width;
* ``finish(g, below)``: PR1, the width of finishing now in any order,
  or ``None`` when it can be neither ``<= g`` nor ``< below``;
* ``pr2(child, grandchildren)``: the grandchildren PR2 keeps, judged
  before ``child`` is eliminated.

``dedup`` says whether states are keyed on the eliminated set
(``working.alive``): the graph left after a prefix depends only on which
vertices it eliminated (DESIGN.md has the soundness argument alongside
PR2 and forcing).

Branch and bound runs ``pr2`` and ``expand`` on every child it tries.
A* runs them only on the children it pops (lazy evaluation): every
generated child costs one ``bag_cost``, and DESIGN.md argues that the
states are still expanded in eager order and the anytime bound stays
sound.
"""

from __future__ import annotations

import heapq
import random
from itertools import count
from typing import ClassVar, Protocol

from repro import obs
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Vertex
from repro.obs.control import SolverControl, records_checkpoints
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    certified,
    interrupted,
)


class Measure(Protocol):
    """A width measure over the elimination orderings of ``working``."""

    kind: ClassVar[str]
    """Suffix of the solver name (``"tw"`` gives ``bb-tw``/``astar-tw``)."""

    dedup: ClassVar[bool]
    working: EliminationGraph
    span_attrs: dict[str, int]

    def root_bounds(
        self, rng: random.Random | None
    ) -> tuple[int, int, list[Vertex]]: ...

    def reduce(self, low: int) -> Vertex | None: ...

    def bag_cost(self, child: Vertex) -> int: ...

    def expand(self, low: int) -> tuple[Vertex | None, int]: ...

    def finish(self, g: int, below: int) -> int | None: ...

    def pr2(self, child: Vertex, grandchildren: list[Vertex]) -> list[Vertex]: ...


class _Incumbent:
    """Best complete ordering found so far, and the bus bound pruned against.

    Improvements are published to ``control`` (the portfolio's bound bus)
    as they happen. ``ext_floor`` is the smallest bus upper bound below
    the own incumbent that the search ever pruned against.
    """

    def __init__(
        self, width: int, ordering: list[Vertex], control: SolverControl
    ) -> None:
        self.width = width
        self.ordering = ordering
        self.control = control
        self.ext_floor: int | None = None
        # Payloads copy the incumbent ordering: build them only for a
        # control that records them.
        self.records = records_checkpoints(control)
        control.publish_upper(width, ordering)

    def offer(self, width: int, ordering: list[Vertex]) -> None:
        if width < self.width:
            self.width = width
            self.ordering = ordering
            self.control.publish_upper(width, ordering)

    def bound(self) -> int:
        """Effective pruning bound: own incumbent vs the bus incumbent."""
        shared = self.control.shared_upper_bound()
        if shared is not None and shared < self.width:
            if self.ext_floor is None or shared < self.ext_floor:
                self.ext_floor = shared
            return shared
        return self.width

    def cap(self, lb: int) -> int:
        """``lb`` capped by any bus bound pruned against: above it, a
        frontier ``f`` no longer proves a lower bound."""
        return lb if self.ext_floor is None else min(lb, self.ext_floor)

    def settle(
        self,
        proven: int,
        width: int,
        ordering: list[Vertex],
        budget: SearchBudget,
        name: str,
    ) -> SearchResult:
        """The result of a finished search holding a witness of ``width``.

        Certified, unless the search pruned against a bus bound below
        ``width``: then only that bound (or ``proven``) is proven here,
        and the matching witness lives elsewhere on the bus.
        """
        floor = self.ext_floor
        lb = width if floor is None or floor >= width else max(proven, floor)
        return interrupted(lb, width, ordering, budget, name)

    def checkpoint(self, lower_bound: int, nodes: int) -> None:
        self.control.checkpoint(
            {
                "best_fitness": self.width,
                "best_individual": list(self.ordering),
                "lower_bound": lower_bound,
                "nodes": nodes,
            }
        )


def _trivial(
    measure: Measure, budget: SearchBudget, name: str
) -> SearchResult | None:
    """Certified 0 when finishing at the root already costs 0 (PR1)."""
    if measure.finish(0, 1) != 0:
        return None
    ordering = sorted(measure.working.vertices(), key=repr)
    return certified(0, ordering, budget, name)


def branch_and_bound(
    measure: Measure,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Depth-first branch and bound (Section 4.4, Chapter 8).

    Children are tried cheapest-degree-first, so good solutions early
    tighten the incumbent for the remaining siblings. A child is cut when
    its bag cost or ``max(g, h)`` reaches the pruning bound, or (with
    ``dedup``) when its set of remaining vertices was already exhausted
    at no higher ``g`` — sound because the pruning bound only tightens.
    ``control=None`` means the inert :class:`SolverControl`.
    """
    control = control or SolverControl()
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = f"bb-{measure.kind}"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr1 = metrics.counter("prunes", rule="pr1", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_incumbent = metrics.counter("prunes", rule="incumbent", solver=name)
    prune_lb = metrics.counter("prunes", rule="lb", solver=name)
    dedup = measure.dedup
    if dedup:
        prune_dup = metrics.counter("prunes", rule="dup", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    trivial = _trivial(measure, budget, name)
    if trivial is not None:
        return _finish(trivial)

    with ins.tracer.span(name, **measure.span_attrs):
        with ins.tracer.span("root_bounds"):
            root_lb, ub, ub_ordering = measure.root_bounds(rng)
        incumbent = _Incumbent(ub, ub_ordering, control)
        control.publish_lower(root_lb)
        if root_lb >= ub:
            return _finish(certified(ub, ub_ordering, budget, name))

        working = measure.working
        index = working.index
        bound, records = incumbent.bound, incumbent.records
        bag_cost, expand, finish, pr2 = (
            measure.bag_cost, measure.expand, measure.finish, measure.pr2
        )
        # Remaining-vertex set -> lowest ``g`` at which its subtree was
        # exhausted (finished without abort, or cut by the lower bound).
        exhausted: dict[int, int] = {}
        aborted = False

        def visit(g: int, children: list[Vertex], forced: bool) -> None:
            """Depth-first expansion; ``children`` were computed by the parent
            (so PR2 could consult the pre-elimination graph)."""
            nonlocal aborted
            if aborted or budget.exhausted() or control.should_stop():
                aborted = True
                return
            budget.charge()
            nodes_total.inc()
            if records:
                incumbent.checkpoint(root_lb, budget.nodes)

            prefix = working.eliminated()
            if working.num_vertices() == 0:
                incumbent.offer(g, list(prefix))
                return
            width = finish(g, incumbent.width)
            if width is not None:
                if width < incumbent.width:
                    incumbent.offer(
                        width, list(prefix) + sorted(working.vertices(), key=repr)
                    )
                if width <= g:
                    prune_pr1.inc()
                    return

            ranked = sorted(children, key=lambda v: (working.degree(v), repr(v)))
            for child in ranked:
                if aborted:
                    return
                limit = bound()
                child_g = max(g, bag_cost(child))
                if child_g >= limit:
                    prune_incumbent.inc()
                    continue
                if dedup:
                    key = working.alive ^ (1 << index[child])
                    if exhausted.get(key, child_g + 1) <= child_g:
                        prune_dup.inc()
                        continue
                grandchildren = [v for v in working.vertices() if v != child]
                if use_pr2 and not forced:
                    kept = pr2(child, grandchildren)
                    prune_pr2.inc(len(grandchildren) - len(kept))
                    grandchildren = kept
                working.eliminate(child)
                reduction, h = expand(max(child_g, root_lb))
                if reduction is not None:
                    grandchildren = [reduction]
                    forced_total.inc()
                if max(child_g, h) < limit:
                    visit(child_g, grandchildren, reduction is not None)
                else:
                    prune_lb.inc()
                if dedup:
                    # An aborted search unwinds without reading the table.
                    exhausted[key] = child_g
                working.restore()

        reduction = measure.reduce(root_lb)
        root_children = (
            sorted(working.vertices(), key=repr) if reduction is None else [reduction]
        )
        with ins.tracer.span("search"):
            visit(0, root_children, reduction is not None)

        if aborted:
            return _finish(
                interrupted(
                    root_lb, incumbent.width, incumbent.ordering, budget, name
                )
            )
        result = incumbent.settle(
            root_lb, incumbent.width, incumbent.ordering, budget, name
        )
        control.publish_lower(result.lower_bound)
        return _finish(result)


def astar(
    measure: Measure,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Best-first search on ``f = max(g, h, f(parent))`` (Chapters 5, 9).

    Among equal ``f`` the deeper state is preferred, so goals surface
    early once the frontier reaches the width level. Children are
    evaluated lazily (Dow & Korf, "Best-First Search for Treewidth",
    2007): an expansion pushes each child with key ``max(g, f(parent))``
    and only its bag cost computed. When such an entry is popped, PR2
    runs against the parent's graph, the child is eliminated and
    bounded, and the entry is re-pushed (uncharged) if ``h`` raised its
    ``f``, dropped if ``f`` reached the pruning bound, and expanded
    otherwise. A re-pushed entry keeps its tiebreak, so states are
    expanded in the order eager evaluation expands them. Popped keys
    never decrease, so the ``f`` of the last expanded state is an
    anytime lower bound. With ``dedup``, a child whose set was already
    reached at no higher ``g`` is not pushed, and heap entries made
    stale by a later, cheaper path to their set are skipped on pop
    without charging the budget. ``control=None`` means the inert
    :class:`SolverControl`.
    """
    control = control or SolverControl()
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = f"astar-{measure.kind}"
    ins = obs.current()
    metrics = ins.metrics
    nodes_total = metrics.counter("nodes", solver=name)
    prune_pr2 = metrics.counter("prunes", rule="pr2", solver=name)
    prune_ub = metrics.counter("prunes", rule="ub", solver=name)
    dedup = measure.dedup
    if dedup:
        prune_dup = metrics.counter("prunes", rule="dup", solver=name)
    forced_total = metrics.counter("reductions", kind="forced", solver=name)

    def _finish(result: SearchResult) -> SearchResult:
        return attach_metrics(result, metrics)

    trivial = _trivial(measure, budget, name)
    if trivial is not None:
        return _finish(trivial)

    with ins.tracer.span(name, **measure.span_attrs):
        with ins.tracer.span("root_bounds"):
            root_lb, ub, ub_ordering = measure.root_bounds(rng)
        control.publish_lower(root_lb)
        incumbent = _Incumbent(ub, ub_ordering, control)
        if root_lb >= ub:
            return _finish(certified(ub, ub_ordering, budget, name))

        working = measure.working
        index = working.index
        bound, cap, records = incumbent.bound, incumbent.cap, incumbent.records
        bag_cost, expand, finish, pr2 = (
            measure.bag_cost, measure.expand, measure.finish, measure.pr2
        )
        lb = root_lb
        sequence = count()
        # Lowest ``g`` at which each remaining-vertex set was reached.
        best_g: dict[int, int] = {working.alive: 0}
        reduction = measure.reduce(lb)
        root_children = (
            tuple(sorted(working.vertices(), key=repr))
            if reduction is None
            else (reduction,)
        )
        # Heap entries: (f, -depth, tiebreak, g, alive, prefix, children,
        # forced); ``alive`` is the entry's remaining-vertex mask and
        # ``forced`` says whether ``children`` were forced. A child not
        # evaluated yet has ``children`` None, its parent's ``forced``, and
        # the key ``max(g, f(parent))``.
        heap: list[
            tuple[
                int, int, int, int, int,
                tuple[Vertex, ...], tuple[Vertex, ...] | None, bool,
            ]
        ] = [
            (
                lb, 0, next(sequence), 0, working.alive,
                (), root_children, reduction is not None,
            )
        ]

        with ins.tracer.span("search"):
            while heap:
                if budget.exhausted() or control.should_stop():
                    return _finish(
                        interrupted(cap(lb), ub, ub_ordering, budget, name)
                    )
                f, neg_depth, tie, g, alive, prefix, children, forced = (
                    heapq.heappop(heap)
                )
                if dedup and g > best_g[alive]:
                    continue  # stale: a cheaper path to this set was queued
                if children is None:
                    child = prefix[-1]
                    working.switch_to(prefix[:-1])
                    grandchildren = [v for v in working.vertices() if v != child]
                    if use_pr2 and not forced:
                        kept = pr2(child, grandchildren)
                        prune_pr2.inc(len(grandchildren) - len(kept))
                        grandchildren = kept
                    working.eliminate(child)
                    reduction, h = expand(max(g, lb))
                    forced = reduction is not None
                    if forced:
                        grandchildren = [reduction]
                        forced_total.inc()
                    children = tuple(grandchildren)
                    if max(f, h) >= bound():
                        prune_ub.inc()
                        continue
                    if h > f:
                        heapq.heappush(
                            heap,
                            (h, neg_depth, tie, g, alive, prefix, children, forced),
                        )
                        continue
                else:
                    working.switch_to(prefix)
                budget.charge()
                nodes_total.inc()
                if f > lb:
                    lb = f
                    control.publish_lower(cap(lb))
                if records:
                    incumbent.checkpoint(cap(lb), budget.nodes)

                width = finish(g, g)
                if width is not None and width <= g:
                    # Goal: finishing in any order yields width exactly g.
                    ordering = list(prefix) + sorted(working.vertices(), key=repr)
                    return _finish(
                        incumbent.settle(root_lb, g, ordering, budget, name)
                    )

                for child in children:
                    child_g = max(g, bag_cost(child))
                    key = alive ^ (1 << index[child])
                    if dedup:
                        if best_g.get(key, child_g + 1) <= child_g:
                            prune_dup.inc()
                            continue
                        best_g[key] = child_g
                    child_f = max(child_g, f)
                    if child_f < bound():
                        heapq.heappush(
                            heap,
                            (
                                child_f,
                                neg_depth - 1,
                                next(sequence),
                                child_g,
                                key,
                                prefix + (child,),
                                None,
                                forced,
                            ),
                        )
                    else:
                        prune_ub.inc()

        # Every state with f < ub was exhausted: ub is the width — unless
        # pruning used a bus bound below ub.
        result = incumbent.settle(root_lb, ub, ub_ordering, budget, name)
        control.publish_lower(result.lower_bound)
        return _finish(result)
