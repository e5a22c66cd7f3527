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
* ``reduce(low)``: the vertex forced in the current state (``None`` if
  none), ``low`` being the almost-simplicial threshold; called at the
  root and on each child that survives its bound;
* ``bag_cost(child, g, limit)``: the cost of eliminating ``child``
  next, priced only inside the window ``(g, limit)``: a value ``v``
  with ``max(g, v) == max(g, c)`` whenever ``max(g, c) < limit``, and
  ``max(g, v) >= limit`` otherwise, for the true cost ``c``. ``g`` is the
  parent's cost and ``limit`` the bound the child is then pruned
  against, so the walks prune and push the same children with the same
  cost as with exact prices (DESIGN.md, "Windowed bag costs");
* ``lower(floor, limit)``: a lower bound on the remaining width ``h``
  of the current state, asked after a child was eliminated and priced
  only inside the window ``(floor, limit)``: a value ``v <= h`` with
  ``max(floor, v) == max(floor, h)`` whenever that is below ``limit``,
  and ``max(floor, v) >= limit`` otherwise. Branch and bound reads only
  whether ``h`` reaches its pruning bound and asks with
  ``floor = limit - 1``; A* reads ``h`` only above the parent's ``f``
  and passes that ``f`` (DESIGN.md, "Windowed lower bounds"). Without a
  window the bound is exact;
* ``finish(g, below)``: PR1, the width of finishing now in any order,
  or ``None`` when it can be neither ``<= g`` nor ``< below``;
* ``pr2(child, grandchildren)``: the grandchildren PR2 keeps, judged
  after ``child`` is eliminated, from its undo record; asked only of a
  child that survived its bound and was not forced.

``dedup`` says whether states are keyed on the eliminated set
(``working.alive``): the graph left after a prefix depends only on which
vertices it eliminated (DESIGN.md has the soundness argument alongside
PR2 and forcing).

Both drivers run in one shell (:func:`_search`): the root bounds, the
incumbent, the counters and the exit brackets, and the one child step.
It eliminates the child and bounds it; only if the child survives the
bound does it ask for its forced vertex, and only if nothing is forced
does it apply PR2. A child the bound cuts is never expanded and a
forced child's children are its forced vertex, so nothing would read
either answer. Branch and
bound steps into every child it tries and keeps its path on a list of
frames, not on the Python stack. A* steps only into the children it
pops (lazy evaluation): every generated child costs one ``bag_cost``,
and DESIGN.md argues that the states are still expanded in eager order
and the anytime bound stays sound.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import count
from typing import ClassVar, Protocol

from repro import obs
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Vertex
from repro.obs.control import SolverControl, records_checkpoints
from repro.obs.metrics import Counter
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

    def bag_cost(self, child: Vertex, g: int, limit: int) -> int: ...

    def lower(self, floor: int = 0, limit: int | None = None) -> int: ...

    def finish(self, g: int, below: int) -> int | None: ...

    def pr2(self, child: Vertex, grandchildren: list[Vertex]) -> list[Vertex]:
        """The ``grandchildren`` PR2 keeps, judged after ``child`` is
        eliminated, from its undo record."""
        ...


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

    def checkpoint(self, lower_bound: int, nodes: int) -> None:
        self.control.checkpoint(
            {
                "best_fitness": self.width,
                "best_individual": list(self.ordering),
                "lower_bound": lower_bound,
                "nodes": nodes,
            }
        )


@dataclass
class _Run:
    """A search past its root, as :func:`_search` hands it to a walk.

    ``children``/``forced`` are the root's children and whether they were
    forced. ``step(child, forced, low, floor, limit)`` eliminates
    ``child`` and bounds it with ``lower(floor, limit)``; it returns the
    new state's ``(children, forced, h)``, ``h`` being that windowed
    bound. A child with ``max(floor, h) >= limit`` is cut: its
    ``children`` are ``None`` and nothing is forced. A survivor's
    children are its forced vertex (reduced at ``low``) or else the
    other vertices, in the order the parent lists them, less those PR2
    drops unless the parent's children were ``forced``; its ``h`` is
    exact only where it exceeds ``floor``.
    """

    name: str
    measure: Measure
    budget: SearchBudget
    control: SolverControl
    incumbent: _Incumbent
    root_lb: int
    children: list[Vertex]
    forced: bool
    nodes: Counter
    prunes: dict[str, Counter]
    step: Callable[
        [Vertex, bool, int, int, int], tuple[list[Vertex] | None, bool, int]
    ]

    def interrupted(self, lb: int) -> SearchResult:
        """The bracket of a search stopped with ``lb`` proven."""
        incumbent = self.incumbent
        return interrupted(
            lb, incumbent.width, incumbent.ordering, self.budget, self.name
        )

    def settle(self, width: int, ordering: list[Vertex]) -> SearchResult:
        """The result of a finished search holding a witness of ``width``.

        Certified, unless the search pruned against a bus bound below
        ``width``: then only that bound (or the root's) is proven here,
        and the matching witness lives elsewhere on the bus.
        """
        floor = self.incumbent.ext_floor
        lb = width if floor is None or floor >= width else max(self.root_lb, floor)
        return interrupted(lb, width, ordering, self.budget, self.name)


def _search(
    walk: Callable[[_Run], SearchResult | None],
    prefix: str,
    rules: tuple[str, ...],
    measure: Measure,
    time_limit: float | None,
    node_limit: int | None,
    use_pr2: bool,
    rng: random.Random | None,
    control: SolverControl | None,
) -> SearchResult:
    """Run ``walk`` as the search ``{prefix}-{measure.kind}``.

    The shell counts nodes, forcing and the prunes of PR2, ``dup`` (with
    ``dedup``) and the walk's own ``rules``. It certifies 0 when
    finishing at the root already costs 0 (PR1), and the root upper
    bound when the root lower bound meets it. ``walk`` returns the result
    of a search it ended itself (budget, stop or an A* goal), or ``None``
    once no state below the pruning bound is left: the incumbent is then
    settled and its lower bound published. ``control=None`` means the
    inert :class:`SolverControl`.
    """
    control = control or SolverControl()
    budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
    name = f"{prefix}-{measure.kind}"
    ins = obs.current()
    metrics = ins.metrics
    nodes = metrics.counter("nodes", solver=name)
    rules = ("pr2", "dup", *rules) if measure.dedup else ("pr2", *rules)
    prunes = {rule: metrics.counter("prunes", rule=rule, solver=name) for rule in rules}
    prune_pr2 = prunes["pr2"]
    forced_total = metrics.counter("reductions", kind="forced", solver=name)
    working = measure.working

    if measure.finish(0, 1) == 0:
        ordering = sorted(working.vertices(), key=repr)
        return attach_metrics(certified(0, ordering, budget, name), metrics)

    with ins.tracer.span(name, **measure.span_attrs):
        with ins.tracer.span("root_bounds"):
            root_lb, ub, ub_ordering = measure.root_bounds(rng)
        incumbent = _Incumbent(ub, ub_ordering, control)
        control.publish_lower(root_lb)
        if root_lb >= ub:
            return attach_metrics(certified(ub, ub_ordering, budget, name), metrics)

        vertices, eliminate = working.vertices, working.eliminate
        lower, reduce, pr2 = measure.lower, measure.reduce, measure.pr2

        def step(
            child: Vertex, forced: bool, low: int, floor: int, limit: int
        ) -> tuple[list | None, bool, int]:
            # Listed before the elimination: a set of the vertices left
            # after it may iterate in another order (DESIGN.md, PR2).
            present = vertices()
            eliminate(child)
            h = lower(floor, limit)
            if max(floor, h) >= limit:
                return None, False, h
            reduction = reduce(low)
            if reduction is not None:
                forced_total.inc()
                return [reduction], True, h
            children = [v for v in present if v != child]
            if use_pr2 and not forced:
                kept = pr2(child, children)
                prune_pr2.inc(len(children) - len(kept))
                children = kept
            return children, False, h

        reduction = measure.reduce(root_lb)
        run = _Run(
            name, measure, budget, control, incumbent, root_lb,
            sorted(vertices(), key=repr) if reduction is None else [reduction],
            reduction is not None, nodes, prunes, step,
        )
        with ins.tracer.span("search"):
            result = walk(run)
        if result is None:
            result = run.settle(incumbent.width, incumbent.ordering)
            control.publish_lower(result.lower_bound)
        return attach_metrics(result, metrics)


def _depth_first(run: _Run) -> SearchResult | None:
    """Branch and bound's walk, on a list of frames.

    A frame is ``[g, children, next position, forced, key]``: a state on
    the current path, its children (ranked once it is entered; the next
    position is ``-1`` until then), whether they were forced, and the
    eliminated-set key of its last vertex. A state is entered (tested
    against the budget, charged and checked by PR1) on top of the stack;
    a frame is popped when its children are done, which writes its
    ``exhausted`` entry and restores its vertex.
    """
    measure, budget, incumbent = run.measure, run.budget, run.incumbent
    working, step, root_lb = measure.working, run.step, run.root_lb
    should_stop, index, degree = run.control.should_stop, working.index, working.degree
    bag_cost, finish, dedup = measure.bag_cost, measure.finish, measure.dedup
    bound, offer, records = incumbent.bound, incumbent.offer, incumbent.records
    nodes_total, prune_pr1, prune_lb = run.nodes, run.prunes["pr1"], run.prunes["lb"]
    prune_incumbent, prune_dup = run.prunes["incumbent"], run.prunes.get("dup")
    # Remaining-vertex set -> lowest ``g`` at which its subtree was
    # exhausted (finished without abort, or cut by the lower bound).
    exhausted: dict[int, int] = {}
    child_key = None  # stays None without dedup
    stack = [[0, run.children, -1, run.forced, None]]
    while stack:
        frame = stack[-1]
        g, ranked, position, forced, key = frame
        if position < 0:
            if budget.exhausted() or should_stop():
                return run.interrupted(root_lb)
            budget.charge()
            nodes_total.inc()
            if records:
                incumbent.checkpoint(root_lb, budget.nodes)
            position = 0
            if working.num_vertices() == 0:
                offer(g, working.eliminated())
                ranked = ()
            else:
                width = finish(g, incumbent.width)
                if width is not None and width < incumbent.width:
                    offer(
                        width,
                        working.eliminated() + sorted(working.vertices(), key=repr),
                    )
                if width is not None and width <= g:
                    prune_pr1.inc()
                    ranked = ()
                else:
                    ranked = sorted(ranked, key=lambda v: (degree(v), repr(v)))
                    frame[1] = ranked
        for position in range(position, len(ranked)):
            child = ranked[position]
            limit = bound()
            child_g = max(g, bag_cost(child, g, limit))
            if child_g >= limit:
                prune_incumbent.inc()
                continue
            if dedup:
                child_key = working.alive ^ (1 << index[child])
                if exhausted.get(child_key, child_g + 1) <= child_g:
                    prune_dup.inc()
                    continue
            # Only the cut is read here: ``h`` is asked for at the floor
            # ``limit - 1``, which cuts exactly when ``h >= limit``, as
            # ``max(child_g, h) >= limit`` does with ``child_g < limit``.
            children, child_forced, _ = step(
                child, forced, max(child_g, root_lb), limit - 1, limit
            )
            if children is not None:
                frame[2] = position + 1
                stack.append([child_g, children, -1, child_forced, child_key])
                break
            prune_lb.inc()
            if dedup:
                exhausted[child_key] = child_g
            working.restore()
        else:
            stack.pop()
            if stack:  # every frame but the root's eliminated a vertex
                if dedup:
                    exhausted[key] = g
                working.restore()
    return None


def _best_first(run: _Run) -> SearchResult | None:
    """A*'s walk over a heap of states and pending children."""
    measure, budget, incumbent = run.measure, run.budget, run.incumbent
    working, step, control = measure.working, run.step, run.control
    should_stop, index, nodes_total = control.should_stop, working.index, run.nodes
    bag_cost, finish, dedup = measure.bag_cost, measure.finish, measure.dedup
    bound, cap, records = incumbent.bound, incumbent.cap, incumbent.records
    prune_ub, prune_dup = run.prunes["ub"], run.prunes.get("dup")
    lb, sequence = run.root_lb, count()
    # Lowest ``g`` at which each remaining-vertex set was reached.
    best_g: dict[int, int] = {working.alive: 0}
    # Heap entries: (f, -depth, tiebreak, g, alive, prefix, children,
    # forced); ``alive`` is the entry's remaining-vertex mask and
    # ``forced`` says whether ``children`` were forced. A child not
    # evaluated yet has ``children`` None, its parent's ``forced``, and
    # the key ``max(g, f(parent))``.
    heap: list[tuple] = [
        (lb, 0, next(sequence), 0, working.alive, (), run.children, run.forced)
    ]
    while heap:
        f, neg_depth, tie, g, alive, prefix, children, forced = heapq.heappop(heap)
        if dedup and g > best_g[alive]:
            continue  # stale: a cheaper path to this set was queued
        if children is None:
            working.switch_to(prefix[:-1])
            children, forced, h = step(prefix[-1], forced, max(g, lb), f, bound())
            if children is None:
                prune_ub.inc()
                continue
            if h > f:
                heapq.heappush(
                    heap, (h, neg_depth, tie, g, alive, prefix, children, forced)
                )
                continue
        else:
            working.switch_to(prefix)
        if budget.exhausted() or should_stop():
            return run.interrupted(cap(lb))
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
            return run.settle(g, list(prefix) + sorted(working.vertices(), key=repr))

        limit = bound()
        for child in children:
            child_g = max(g, bag_cost(child, g, limit))
            key = alive ^ (1 << index[child])
            if dedup:
                if best_g.get(key, child_g + 1) <= child_g:
                    prune_dup.inc()
                    continue
                best_g[key] = child_g
            child_f = max(child_g, f)
            if child_f < limit:
                heapq.heappush(
                    heap,
                    (
                        child_f, neg_depth - 1, next(sequence), child_g, key,
                        prefix + (child,), None, forced,
                    ),
                )
            else:
                prune_ub.inc()
    # Every state with f < ub was exhausted: ub is the width, unless
    # pruning used a bus bound below ub.
    return None


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
    return _search(
        _depth_first, "bb", ("pr1", "incumbent", "lb"), measure,
        time_limit, node_limit, use_pr2, rng, control,
    )


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
    and only its bag cost computed. When such an entry is popped, the
    child is eliminated and bounded, and the entry is dropped if ``f``
    reached the pruning bound; otherwise its forced vertex is found,
    PR2 filters its children unless it or its parent was forced, and
    the entry is re-pushed (uncharged) if ``h`` raised its ``f``, and
    expanded otherwise. A re-pushed entry keeps its tiebreak, so states are
    expanded in the order eager evaluation expands them. The budget and
    stop test runs just before a state is charged, so a search whose
    budget runs out still drops the pending children that eager
    evaluation would have cut. Popped keys never decrease, so the ``f``
    of the last expanded state is an anytime lower bound. With
    ``dedup``, a child whose set was already reached at no higher ``g``
    is not pushed, and heap entries made stale by a later, cheaper path
    to their set are skipped on pop without charging the budget.
    ``control=None`` means the inert :class:`SolverControl`.
    """
    return _search(
        _best_first, "astar", ("ub",), measure,
        time_limit, node_limit, use_pr2, rng, control,
    )
