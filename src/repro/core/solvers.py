"""One table from solver names to code.

:data:`SOLVERS` maps ``(kind, measure)`` to a :class:`Solver`: the
library entry point behind the name, how to call it, and which of its
result attributes a caller reports. Every way of running a solver by
name reads this table:

* :func:`repro.portfolio.workers.run_strategy` runs an entry and
  normalises its result into a
  :class:`~repro.portfolio.results.WorkerResult` — the one place that
  happens;
* the experiment runner and the CLI build a
  :class:`~repro.portfolio.strategies.StrategySpec` and call
  ``run_strategy``;
* :mod:`repro.core.api` checks names against the table and takes an
  exact entry's search function from it.

The kinds are the exact searches ``bb`` and ``astar``; the heuristics
``ga``, ``saiga`` (ghw only), ``sa`` and ``tabu``; and the treewidth
ordering heuristics ``min-fill``, ``min-degree``, ``min-width`` and
``mcs``, which build one ordering and return its width. A new width
measure adds its rows here.

A row names its entry point and parameter class as ``"module:attribute"``
and imports them the first time it is used, so loading the table loads
no solver module.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property

from repro._lazy import resolve
from repro.bounds.upper import heuristic_names


@dataclass(frozen=True)
class OrderingResult:
    """What an ordering heuristic returns: one ordering and its width."""

    best_fitness: int
    best_individual: list
    elapsed: float
    evaluations: int = 1


@dataclass(frozen=True)
class Solver:
    """One ``(kind, measure)`` row of :data:`SOLVERS`."""

    kind: str
    measure: str
    entry: str
    """``"module:attribute"`` of the library entry point the name stands
    for; :attr:`function` imports it."""

    call: Callable
    """``call(function, instance, seed, time_limit, jobs, kwargs, control,
    resume_state)``: ``function`` with the family's calling convention."""

    exact: bool = False
    """An exact search: returns a ``SearchResult`` with bounds and nodes;
    every other entry returns a best ordering and its width."""

    parameter_class: str | None = None
    """``"module:attribute"`` of the parameter dataclass built from a
    spec's ``options`` and passed as ``parameters=``; without one,
    options are keyword arguments of ``function``."""

    detail: tuple[tuple[str, str], ...] = ()
    """``(key, result attribute)`` pairs reported next to the bounds."""

    @cached_property
    def function(self) -> Callable:
        """The entry point, imported on first use."""
        return resolve(self.entry)

    @cached_property
    def parameters(self) -> type | None:
        """The parameter dataclass, imported on first use, or ``None``."""
        return resolve(self.parameter_class) if self.parameter_class else None

    def options(self, node_limit: int | None = None, parameters=None) -> dict:
        """Spec options for a node budget and a parameter object; each is
        dropped where this solver does not take it."""
        options: dict = {}
        if self.exact and node_limit is not None:
            options["node_limit"] = node_limit
        if self.parameters and isinstance(parameters, self.parameters):
            options.update(asdict(parameters))
        return options

    def run(
        self,
        instance,
        seed: int = 0,
        time_limit: float | None = None,
        jobs: int = 1,
        options: dict | None = None,
        control=None,
        resume_state: dict | None = None,
    ):
        """Run on ``instance`` (the primal graph for tw) and return the
        entry point's own result object."""
        kwargs = dict(options or {})
        if self.parameters is not None:
            kwargs = {"parameters": self.parameters(**kwargs) if kwargs else None}
        return self.call(
            self.function,
            instance,
            seed,
            time_limit,
            jobs,
            kwargs,
            control,
            resume_state,
        )


def _search(kind: str, measure: str, entry: str) -> Solver:
    # The exact searches cannot resume mid-tree: ``resume_state`` is
    # dropped and the scheduler seeds the shared incumbent instead.
    def call(
        function, instance, seed, time_limit, jobs, kwargs, control, resume_state
    ):
        return function(
            instance,
            time_limit=time_limit,
            rng=random.Random(seed),
            control=control,
            **kwargs,
        )

    return Solver(
        kind,
        measure,
        entry,
        call,
        exact=True,
        detail=(("nodes", "nodes_expanded"), ("algorithm", "algorithm")),
    )


def _heuristic(
    kind: str,
    measure: str,
    entry: str,
    parameter_class: str | None,
    detail: tuple[tuple[str, str], ...],
    pooled: bool,
) -> Solver:
    """GA, SAIGA (``pooled``: they take ``jobs``), SA and tabu."""

    def call(
        function, instance, seed, time_limit, jobs, kwargs, control, resume_state
    ):
        if pooled:
            kwargs = {**kwargs, "jobs": jobs}
        return function(
            instance,
            seed=seed,
            time_limit=time_limit,
            control=control,
            resume_state=resume_state,
            **kwargs,
        )

    return Solver(
        kind, measure, entry, call, parameter_class=parameter_class, detail=detail
    )


def _ordering(heuristic: str) -> Solver:
    """A treewidth ordering heuristic: one ordering and its width."""

    def call(
        function, instance, seed, time_limit, jobs, kwargs, control, resume_state
    ):
        started = time.monotonic()
        width, ordering = function(instance, heuristic, random.Random(seed))
        return OrderingResult(width, ordering, time.monotonic() - started)

    return Solver(heuristic, "tw", "repro.bounds.upper:upper_bound_ordering", call)


#: ``(parameter class, detail, pooled)`` of each heuristic family.
_GA = ("repro.genetic.engine:GAParameters", (("generations", "generations"),), True)
_SAIGA = (None, (("generations", "generations"),), True)
_SA = (
    "repro.localsearch.simulated_annealing:AnnealingParameters",
    (("accepted", "accepted_moves"),),
    False,
)
_TABU = ("repro.localsearch.tabu:TabuParameters", (("iterations", "iterations"),), False)

_ROWS = [
    _search("bb", "tw", "repro.search.bb_tw:branch_and_bound_treewidth"),
    _search("bb", "ghw", "repro.search.bb_ghw:branch_and_bound_ghw"),
    _search("astar", "tw", "repro.search.astar_tw:astar_treewidth"),
    _search("astar", "ghw", "repro.search.astar_ghw:astar_ghw"),
    _heuristic("ga", "tw", "repro.genetic.ga_tw:ga_treewidth", *_GA),
    _heuristic("ga", "ghw", "repro.genetic.ga_ghw:ga_ghw", *_GA),
    _heuristic("saiga", "ghw", "repro.genetic.saiga:saiga_ghw", *_SAIGA),
    _heuristic("sa", "tw", "repro.localsearch.simulated_annealing:sa_treewidth", *_SA),
    _heuristic("sa", "ghw", "repro.localsearch.simulated_annealing:sa_ghw", *_SA),
    _heuristic("tabu", "tw", "repro.localsearch.tabu:tabu_treewidth", *_TABU),
    _heuristic("tabu", "ghw", "repro.localsearch.tabu:tabu_ghw", *_TABU),
    *(_ordering(heuristic) for heuristic in heuristic_names()),
]

#: Every runnable solver, keyed by ``(kind, measure)``.
SOLVERS: dict[tuple[str, str], Solver] = {
    (row.kind, row.measure): row for row in _ROWS
}


def kinds(measure: str | None = None) -> list[str]:
    """Registered kinds, in table order (for one measure, or any)."""
    return list(dict.fromkeys(k for k, m in SOLVERS if measure in (None, m)))


def lookup(kind: str, measure: str) -> Solver:
    """The table row for ``(kind, measure)``; unknown names raise
    ``ValueError`` naming the registered kinds."""
    solver = SOLVERS.get((kind, measure))
    if solver is not None:
        return solver
    if kind not in kinds():
        raise ValueError(
            f"unknown strategy kind {kind!r}; choose from {kinds()}"
        )
    others = [m for k, m in SOLVERS if k == kind]
    raise ValueError(f"strategy {kind!r} only applies to {', '.join(others)}")
