"""The anytime shell: a run resumed from a mid-run checkpoint is the run.

GA, SAIGA, simulated annealing and tabu search each offer a snapshot
after every step. Resuming from any of them restores the loop's state
and the ``rng`` (which also drives ghw's random greedy ties), so the
resumed run must finish exactly where the uninterrupted run did: same
best ordering, history and counts.
"""

from __future__ import annotations

import pytest

from repro.genetic.engine import GAParameters
from repro.genetic.ga_ghw import ga_ghw
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.instances.dimacs_like import queen_graph
from repro.instances.hypergraphs import grid2d
from repro.localsearch.simulated_annealing import (
    AnnealingParameters,
    sa_ghw,
    sa_treewidth,
)
from repro.localsearch.tabu import TabuParameters, tabu_ghw, tabu_treewidth
from repro.obs.control import LocalControl

GA = GAParameters(population_size=10, max_iterations=8)
SA = AnnealingParameters(steps_per_temperature=5, minimum_temperature=1.0)
TABU = TabuParameters(iterations=12)


def _outcome(result) -> tuple:
    return (
        result.best_fitness,
        list(result.best_individual),
        list(result.history),
        result.evaluations,
        getattr(result, "generations", None),
        getattr(result, "accepted_moves", None),
        getattr(result, "iterations", None),
    )


def _assert_resume_matches(solve, instance, **kwargs):
    control = LocalControl()
    uninterrupted = solve(instance, seed=3, control=control, **kwargs)
    assert len(control.checkpoints) >= 4
    middle = control.checkpoints[len(control.checkpoints) // 2]
    assert middle["history"] != list(uninterrupted.history)
    resumed = solve(instance, seed=3, resume_state=middle, **kwargs)
    assert _outcome(resumed) == _outcome(uninterrupted)


@pytest.mark.parametrize(
    "solve, instance",
    [(ga_ghw, grid2d(4)), (ga_treewidth, queen_graph(5))],
    ids=["ghw", "tw"],
)
def test_ga_resumes_to_the_uninterrupted_run(solve, instance):
    _assert_resume_matches(solve, instance, parameters=GA)


def test_saiga_resumes_to_the_uninterrupted_run():
    _assert_resume_matches(
        saiga_ghw,
        grid2d(4),
        islands=2,
        island_population=6,
        epochs=5,
        epoch_generations=2,
    )


@pytest.mark.parametrize(
    "solve, instance",
    [(sa_ghw, grid2d(4)), (sa_treewidth, queen_graph(5))],
    ids=["ghw", "tw"],
)
def test_sa_resumes_to_the_uninterrupted_run(solve, instance):
    _assert_resume_matches(solve, instance, parameters=SA)


@pytest.mark.parametrize(
    "solve, instance",
    [(tabu_ghw, grid2d(4)), (tabu_treewidth, queen_graph(5))],
    ids=["ghw", "tw"],
)
def test_tabu_resumes_to_the_uninterrupted_run(solve, instance):
    _assert_resume_matches(solve, instance, parameters=TABU)
