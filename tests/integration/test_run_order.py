"""A run's counters do not depend on what ran before it in the process.

Every cover memo lives with its owner (a solver, a ``BitHypergraph``),
so a search that follows another one on the same instance starts as
cold as one that runs alone.
"""

from __future__ import annotations

from repro import obs
from repro.core.api import generalized_hypertree_width
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.instances.registry import instance


def _setcover_counts(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.startswith("setcover")}


def _astar_ghw_counts() -> dict:
    with obs.instrument() as ins:
        generalized_hypertree_width(
            instance("b06"), algorithm="astar", node_limit=300, seed=0
        )
    return _setcover_counts(ins.metrics.snapshot())


def test_astar_ghw_counts_do_not_depend_on_an_earlier_search():
    alone = _astar_ghw_counts()
    generalized_hypertree_width(
        instance("b06"), algorithm="bb", node_limit=300, seed=0
    )
    after_bb = _astar_ghw_counts()
    assert alone['setcover_cache{event="miss"}'] > 0
    assert after_bb == alone


def test_runner_cells_do_not_depend_on_earlier_cells():
    def astar_cell(algorithms: tuple[str, ...]) -> dict:
        spec = ExperimentSpec(
            instances=["b06"],
            measure="ghw",
            algorithms=list(algorithms),
            node_limit=300,
            seed=0,
        )
        table = run_experiment(spec, collect_reports=True)
        (report,) = [r for r in table.reports if r.solver == "astar"]
        return _setcover_counts(report.counters)

    alone = astar_cell(("astar",))
    assert alone['setcover_cache{event="miss"}'] > 0
    assert astar_cell(("bb", "astar")) == alone
