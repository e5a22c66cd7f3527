"""The high-level public API.

Most users want one of four things; each is one call here:

* :func:`treewidth` — the exact treewidth of a graph (A* or BB), with
  graceful degradation to bounds under a budget;
* :func:`treewidth_bounds` — fast heuristic bounds (no search);
* :func:`generalized_hypertree_width` — exact ghw of a hypergraph;
* :func:`decompose` — an actual decomposition object: a
  :class:`TreeDecomposition` for graphs, a (complete, validated)
  :class:`GeneralizedHypertreeDecomposition` for hypergraphs, built from
  the best ordering the selected method finds.

Everything accepts either exact algorithms (``"astar"``/``"bb"``) or
heuristics (``"ga"``, ``"saiga"``, ``"min-fill"``, ...): the names of the
solver table :data:`repro.core.solvers.SOLVERS`.
"""

from __future__ import annotations

import random
from functools import partial

from repro.bounds.ghw_lower import tw_ksc_width
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.core.solvers import SOLVERS, Solver, lookup
from repro.core.widths import WIDTHS, validate_hypergraph
from repro.decompositions.elimination import (
    check_cover,
    ordering_ghw,
    ordering_to_ghd,
)
from repro.decompositions.ghd import (
    GeneralizedHypertreeDecomposition,
    make_complete,
)
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.genetic.engine import GAParameters
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.search.common import SearchResult


def _row(name: str, measure: str, exact: bool, label: str) -> Solver:
    """The table row ``name`` of ``measure``, if it is (not) ``exact``."""
    solver = SOLVERS.get((name, measure))
    if solver is None or solver.exact != exact:
        raise ValueError(f"unknown {label} {name!r}")
    return solver


def _run(
    solver: Solver,
    instance: Graph | Hypergraph,
    seed: int,
    time_limit: float | None,
    node_limit: int | None,
    jobs: int,
    parameters=None,
):
    """Run ``solver`` once through :func:`~repro.portfolio.workers.run_strategy`."""
    from repro.portfolio.strategies import StrategySpec
    from repro.portfolio.workers import run_strategy

    spec = StrategySpec(
        name=solver.kind,
        kind=solver.kind,
        seed=seed,
        jobs=jobs,
        options=solver.options(node_limit=node_limit, parameters=parameters),
    )
    return run_strategy(spec, instance, solver.measure, time_limit=time_limit)


def _exact(
    measure: str,
    label: str,
    instance: Graph | Hypergraph,
    algorithm: str,
    time_limit: float | None,
    node_limit: int | None,
    seed: int,
    by_components: bool,
) -> SearchResult:
    """Run the exact search ``algorithm`` of ``measure`` on ``instance``,
    per component if asked."""
    solver = _row(algorithm, measure, True, label).function
    width = WIDTHS[measure]
    instance = width.prepare(instance)
    width.check(instance)
    if by_components:
        from repro.search.components import by_components as split

        solver = partial(split, width, solver=solver)
    return solver(
        instance, time_limit=time_limit, node_limit=node_limit,
        rng=random.Random(seed),
    )


def _at_most(
    exact, instance, k: int, time_limit: float | None, node_limit: int | None, seed: int
) -> bool | None:
    """Decide ``width <= k`` with the ``exact`` width function, per
    component; ``None`` if the bracket it reaches straddles ``k``."""
    result = exact(
        instance, time_limit=time_limit, node_limit=node_limit, seed=seed,
        by_components=True,
    )
    if result.upper_bound <= k:
        return True
    if result.lower_bound > k:
        return False
    return None if not result.optimal else result.value <= k


def treewidth(
    instance: Graph | Hypergraph,
    algorithm: str = "astar",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    by_components: bool = False,
) -> SearchResult:
    """Exact treewidth via ``"astar"`` (A*-tw) or ``"bb"`` (BB-tw).

    ``by_components=True`` searches each connected component separately
    (the treewidth of a graph is the maximum over its components), which
    is strictly cheaper on disconnected instances.
    """
    return _exact(
        "tw", "treewidth algorithm", instance, algorithm, time_limit,
        node_limit, seed, by_components,
    )


def is_treewidth_at_most(
    instance: Graph | Hypergraph,
    k: int,
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
) -> bool | None:
    """Decide ``tw(instance) <= k``; ``None`` if the budget runs out."""
    return _at_most(treewidth, instance, k, time_limit, node_limit, seed)


def treewidth_bounds(
    instance: Graph | Hypergraph, seed: int = 0
) -> tuple[int, int]:
    """Fast heuristic ``(lower, upper)`` treewidth bounds (no search)."""
    graph = WIDTHS["tw"].prepare(instance)
    rng = random.Random(seed)
    lower = treewidth_lower_bound(graph, rng=rng)
    upper, _ordering = upper_bound_ordering(graph, "min-fill", rng)
    return lower, upper


def treewidth_upper_bound(
    instance: Graph | Hypergraph,
    method: str = "ga",
    parameters: GAParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    jobs: int = 1,
) -> int:
    """Heuristic treewidth upper bound: ``"ga"`` (GA-tw), ``"sa"``,
    ``"tabu"`` or an ordering heuristic name (``"min-fill"``,
    ``"min-degree"``, ...).

    ``parameters`` apply when they are the method's parameter class
    (``GAParameters`` for ``"ga"``) and ``jobs`` to GA-tw's population
    evaluation (see :mod:`repro.kernels`); other methods ignore them.
    """
    solver = _row(method, "tw", False, "treewidth upper-bound method")
    return _run(
        solver, instance, seed, time_limit, None, jobs, parameters
    ).upper_bound


def generalized_hypertree_width(
    hypergraph: Hypergraph,
    algorithm: str = "bb",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    by_components: bool = False,
) -> SearchResult:
    """Exact ghw via ``"bb"`` (BB-ghw) or ``"astar"`` (A*-ghw).

    ``by_components=True`` splits the hypergraph at its primal-graph
    components before searching.
    """
    return _exact(
        "ghw", "ghw algorithm", hypergraph, algorithm, time_limit,
        node_limit, seed, by_components,
    )


def is_ghw_at_most(
    hypergraph: Hypergraph,
    k: int,
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
) -> bool | None:
    """Decide ``ghw(hypergraph) <= k``; ``None`` if the budget runs out."""
    return _at_most(
        generalized_hypertree_width, hypergraph, k, time_limit, node_limit, seed
    )


def ghw_bounds(hypergraph: Hypergraph, seed: int = 0) -> tuple[int, int]:
    """Fast heuristic ``(lower, upper)`` ghw bounds (no search)."""
    validate_hypergraph(hypergraph)
    rng = random.Random(seed)
    lower = tw_ksc_width(hypergraph, rng=rng)
    _width, ordering = upper_bound_ordering(
        hypergraph.primal_graph(), "min-fill", rng
    )
    upper = ordering_ghw(hypergraph, ordering, cover="greedy")
    return lower, upper


def ghw_upper_bound(
    hypergraph: Hypergraph,
    method: str = "ga",
    parameters: GAParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    jobs: int = 1,
) -> int:
    """Heuristic ghw upper bound: ``"ga"`` (GA-ghw), ``"saiga"``,
    ``"sa"``, ``"tabu"`` or an ordering heuristic name.

    ``parameters`` apply when they are the method's parameter class
    (``GAParameters`` for ``"ga"``) and ``jobs`` to GA/SAIGA population
    evaluation (see :mod:`repro.kernels`); other methods ignore them.
    """
    solver = _row(method, "ghw", False, "ghw upper-bound method")
    validate_hypergraph(hypergraph)
    return _run(
        solver, hypergraph, seed, time_limit, None, jobs, parameters
    ).upper_bound


def decompose_graph(
    graph: Graph,
    algorithm: str = "astar",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> TreeDecomposition:
    """A validated tree decomposition of ``graph``.

    ``algorithm`` is any treewidth name of the solver table. Exact
    algorithms produce optimal width when they finish; under a budget
    the best ordering found so far is materialised. ``jobs`` applies to
    the ``"ga"`` path only.
    """
    solver = lookup(algorithm, "tw")
    if graph.num_vertices() == 0:
        raise ValueError("cannot decompose the empty graph")
    ordering = _run(
        solver, graph, seed, time_limit, node_limit, jobs
    ).ordering
    return WIDTHS["tw"].decompose(graph, ordering)


def decompose(
    hypergraph: Hypergraph,
    algorithm: str = "bb",
    cover: str = "exact",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    complete: bool = True,
    jobs: int = 1,
) -> GeneralizedHypertreeDecomposition:
    """A validated (complete) GHD of ``hypergraph``.

    ``algorithm`` selects how the ordering is found: a ghw name of the
    solver table (``"bb"``, ``"astar"``, ``"ga"``, ``"saiga"``, ``"sa"``,
    ``"tabu"``) or else a treewidth one (an ordering heuristic name such
    as ``"min-fill"``), whose ordering of the primal graph is an
    elimination ordering of the hypergraph too. ``cover`` selects how
    bags are covered (``"exact"`` or ``"greedy"``, checked before the
    solver runs); ``jobs`` applies to the ``"ga"``/``"saiga"`` paths.
    """
    check_cover(cover)
    solver = SOLVERS.get((algorithm, "ghw")) or lookup(algorithm, "tw")
    validate_hypergraph(hypergraph)
    if hypergraph.num_vertices() == 0:
        raise ValueError("cannot decompose the empty hypergraph")
    ordering = _run(
        solver, hypergraph, seed, time_limit, node_limit, jobs
    ).ordering
    ghd = ordering_to_ghd(hypergraph, ordering, cover=cover)
    if complete:
        ghd = make_complete(ghd, hypergraph)
    ghd.validate(hypergraph)
    return ghd


def run_portfolio(
    instance: Graph | Hypergraph,
    measure: str = "tw",
    strategies: str | list | None = None,
    time_limit: float | None = None,
    mode: str = "process",
    seed: int = 0,
    checkpoint_dir: str | None = None,
    instance_name: str = "instance",
):
    """Race a portfolio of strategies on ``instance`` and fold bounds.

    ``strategies`` is a comma-separated kind list (``"bb,ga,sa,tabu"``),
    a list of :class:`~repro.portfolio.strategies.StrategySpec`, or
    ``None`` for the default 4-strategy race. Returns a
    :class:`~repro.portfolio.results.PortfolioResult`; the race certifies
    optimality when any worker's lower bound meets any worker's upper
    bound, even if no single worker certified on its own.
    """
    from repro.portfolio import PortfolioSpec, parse_strategies
    from repro.portfolio import run_portfolio as race

    if isinstance(strategies, str):
        strategies = parse_strategies(strategies, measure, seed=seed)
    spec = PortfolioSpec(
        measure=measure,
        strategies=list(strategies or []),
        time_limit=time_limit,
        mode=mode,
        seed=seed,
        instance_name=instance_name,
        checkpoint_dir=checkpoint_dir,
    )
    return race(instance, spec)


def resume_portfolio(
    instance: Graph | Hypergraph,
    checkpoint_dir: str,
    time_limit: float | None = None,
    mode: str | None = None,
):
    """Resume a checkpointed portfolio race (see the portfolio docs)."""
    from repro.portfolio import resume_portfolio as resume

    return resume(instance, checkpoint_dir, time_limit=time_limit, mode=mode)
