"""Regression: the ghw searches certified a width where ghw is undefined.

A vertex in no hyperedge cannot be covered, so the instance has no
generalized hypertree decomposition at all. BB-ghw and A*-ghw used to
treat every edgeless instance as trivial and certify width 0 for
``Hypergraph(vertices=[1, 2, 3])``; the inline portfolio then reported
that as optimal, and ``ghw_by_components`` certified width 1 on an
isolated vertex next to a covered edge (the vertex became an edgeless
component). Only the instance without vertices is trivial now; any
uncovered vertex raises :class:`UncoverableError`, as it already did when
the instance had edges.

The ghw heuristics (GA, SAIGA, SA, tabu) had the same fault: they
returned width 0 on an edgeless instance, and an inline portfolio of
them reported upper bound 0. They now score every ordering, including
the single ordering of a one-vertex instance, with the greedy cover, so
an uncovered vertex raises there as well.
"""

import pytest

from repro.core.solvers import SOLVERS
from repro.hypergraphs.hypergraph import Hypergraph
from repro.portfolio import PortfolioSpec, parse_strategies, run_portfolio
from repro.search.astar_ghw import astar_ghw
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.components import ghw_by_components
from repro.setcover.greedy import UncoverableError

SEARCHES = [
    pytest.param(branch_and_bound_ghw, id="bb-ghw"),
    pytest.param(astar_ghw, id="astar-ghw"),
]

HEURISTICS = [
    pytest.param(solver, id=f"{kind}-ghw")
    for (kind, measure), solver in SOLVERS.items()
    if measure == "ghw" and not solver.exact
]


def _isolated_vertex_beside_an_edge() -> Hypergraph:
    hypergraph = Hypergraph(vertices=[9])
    hypergraph.add_edge("e", {1, 2})
    return hypergraph


@pytest.mark.parametrize("search", SEARCHES)
def test_search_raises_on_an_edgeless_instance(search):
    with pytest.raises(UncoverableError):
        search(Hypergraph(vertices=[1, 2, 3]))


@pytest.mark.parametrize("search", SEARCHES)
def test_search_raises_on_an_uncovered_vertex(search):
    with pytest.raises(UncoverableError):
        search(_isolated_vertex_beside_an_edge())


@pytest.mark.parametrize("search", SEARCHES)
def test_empty_instance_stays_certified_zero(search):
    result = search(Hypergraph())
    assert result.optimal and result.value == 0
    assert result.ordering == []


@pytest.mark.parametrize("search", SEARCHES)
def test_components_raise_on_an_isolated_vertex(search):
    with pytest.raises(UncoverableError):
        ghw_by_components(_isolated_vertex_beside_an_edge(), search)


def test_inline_portfolio_claims_nothing_on_an_edgeless_instance():
    race = run_portfolio(
        Hypergraph(vertices=[1, 2, 3]),
        PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies("bb,astar", "ghw"),
            time_limit=5.0,
            mode="inline",
        ),
    )
    assert not race.optimal
    assert race.value is None
    assert (race.lower_bound, race.upper_bound) == (None, None)
    assert all(worker.status == "error" for worker in race.workers)


@pytest.mark.parametrize("solver", HEURISTICS)
@pytest.mark.parametrize("vertices", [[1], [1, 2, 3]], ids=["one", "three"])
def test_heuristic_raises_on_an_edgeless_instance(solver, vertices):
    with pytest.raises(UncoverableError):
        solver.run(Hypergraph(vertices=vertices), seed=0, time_limit=5.0)


@pytest.mark.parametrize("solver", HEURISTICS)
def test_heuristic_raises_on_an_uncovered_vertex(solver):
    with pytest.raises(UncoverableError):
        solver.run(_isolated_vertex_beside_an_edge(), seed=0, time_limit=5.0)


@pytest.mark.parametrize("solver", HEURISTICS)
def test_heuristic_keeps_the_empty_instance_at_zero(solver):
    result = solver.run(Hypergraph(), seed=0, time_limit=5.0)
    assert result.best_fitness == 0
    assert result.best_individual == []


def test_inline_heuristic_portfolio_claims_nothing_on_an_edgeless_instance():
    race = run_portfolio(
        Hypergraph(vertices=[1, 2, 3]),
        PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies("ga,saiga,sa,tabu", "ghw"),
            time_limit=5.0,
            mode="inline",
        ),
    )
    assert not race.optimal
    assert race.value is None
    assert (race.lower_bound, race.upper_bound) == (None, None)
    assert all(worker.status == "error" for worker in race.workers)
