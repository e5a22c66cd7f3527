"""Every solver family honours the SolverControl contract.

Each family must: stop cooperatively when ``should_stop`` fires, publish
upper-bound improvements (with witness orderings), checkpoint resumable
state, and — for the exact searches — prune against an injected shared
upper bound without ever claiming a lower bound it did not prove.
"""

import pytest

from repro.genetic.ga_ghw import ga_ghw
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.localsearch.simulated_annealing import sa_ghw
from repro.localsearch.tabu import tabu_ghw
from repro.instances.registry import instance
from repro.obs.control import LocalControl
from repro.search.astar_ghw import astar_ghw
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.search.astar_tw import astar_treewidth

#: The four exact searches, each with an instance whose root lower bound
#: stays below its root upper bound, so the search itself runs.
EXACT_SEARCHES = [
    pytest.param(branch_and_bound_treewidth, "tw", id="bb-tw"),
    pytest.param(astar_treewidth, "tw", id="astar-tw"),
    pytest.param(branch_and_bound_ghw, "ghw", id="bb-ghw"),
    pytest.param(astar_ghw, "ghw", id="astar-ghw"),
]

#: measure -> (instance, its width; root heuristic ub is optimal, root lb is not)
OPTIMAL_UB = {"tw": ("myciel3", 5), "ghw": ("adder_6", 2)}

#: measure -> (instance, root lb, root ub): a shared ub at the root lb
#: lies below the search's own incumbent.
ROOT_GAP = {"tw": ("myciel3", 4, 5), "ghw": ("grid2d_3", 2, 3)}

#: measure -> an instance the search does not certify at its root.
UNCERTIFIED_AT_ROOT = {"tw": "queen4_4", "ghw": "grid2d_5"}


class TestHeuristicHooks:
    def test_ga_publishes_and_checkpoints(self, figure_2_11):
        control = LocalControl()
        result = ga_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        assert sorted(control.best_ordering) == sorted(figure_2_11.vertices())
        assert control.checkpoints
        last = control.checkpoints[-1]
        assert last["best_fitness"] == result.best_fitness
        assert "rng_state" in last and "population" in last

    def test_ga_stops_cooperatively(self, figure_2_11):
        control = LocalControl(stop_after_publishes=1)
        result = ga_ghw(figure_2_11, seed=0, control=control)
        # wound down early but still returned its best-so-far
        assert result.best_fitness >= 2
        assert control.publishes >= 1

    def test_ga_early_stops_at_shared_lower_bound(self, figure_2_11):
        control = LocalControl(lower_bound=2)
        result = ga_ghw(figure_2_11, seed=0, control=control)
        assert result.best_fitness == 2
        # reaching the proven optimum ends the run well before the
        # generation budget
        assert result.generations < 20

    def test_ga_resumes_from_snapshot(self, figure_2_11):
        control = LocalControl(stop_after_publishes=1)
        ga_ghw(figure_2_11, seed=0, control=control)
        snapshot = control.checkpoints[-1]
        resumed = ga_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= snapshot["best_fitness"]

    def test_sa_hooks(self, figure_2_11):
        control = LocalControl()
        result = sa_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        assert control.checkpoints
        snapshot = control.checkpoints[-1]
        assert snapshot["best_fitness"] == result.best_fitness
        resumed = sa_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= result.best_fitness

    def test_tabu_hooks(self, figure_2_11):
        control = LocalControl()
        result = tabu_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        snapshot = control.checkpoints[-1]
        resumed = tabu_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= result.best_fitness

    def test_saiga_hooks(self, figure_2_11):
        control = LocalControl()
        result = saiga_ghw(figure_2_11, seed=0, epochs=2, control=control)
        assert control.best_upper == result.best_fitness
        snapshot = control.checkpoints[-1]
        assert "islands" in snapshot
        resumed = saiga_ghw(
            figure_2_11, seed=0, epochs=1, resume_state=snapshot
        )
        assert resumed.best_fitness <= result.best_fitness

    def test_tw_ga_accepts_control(self, square):
        control = LocalControl()
        result = ga_treewidth(square, seed=0, control=control)
        assert control.best_upper == result.best_fitness == 2


class TestExactHooks:
    def test_bb_publishes_both_bounds(self, square):
        control = LocalControl()
        result = branch_and_bound_treewidth(square, control=control)
        assert result.optimal and result.value == 2
        assert control.best_upper == 2
        assert control.best_lower == 2

    def test_bb_prunes_against_shared_upper_without_fake_lb(self, square):
        # A shared ub below the true optimum: the search exhausts while
        # pruning against it, so it must NOT certify — only lb <= 2 is
        # actually proven.
        control = LocalControl(upper_bound=2)
        result = branch_and_bound_treewidth(square, control=control)
        assert result.lower_bound <= 2
        assert not (result.optimal and result.value > 2)

    def test_bb_stops_cooperatively(self):
        from repro.instances.dimacs_like import queen_graph

        control = LocalControl()
        control.stop = True
        result = branch_and_bound_treewidth(queen_graph(4), control=control)
        # wound down immediately: no search happened, bounds stay sound
        assert result.nodes_expanded == 0
        assert not result.optimal
        assert result.lower_bound <= result.upper_bound

    def test_astar_control(self, square):
        control = LocalControl()
        result = astar_treewidth(square, control=control)
        assert result.optimal and result.value == 2
        assert control.best_lower == 2

    @pytest.mark.parametrize("search, measure", EXACT_SEARCHES)
    def test_exact_search_publishes_both_bounds(self, search, measure):
        name, width = OPTIMAL_UB[measure]
        control = LocalControl()
        result = search(instance(name), control=control)
        assert result.optimal and result.value == width
        assert control.best_upper == width
        assert control.best_lower == width

    @pytest.mark.parametrize("search, measure", EXACT_SEARCHES)
    def test_exact_search_brackets_against_a_shared_upper_bound(
        self, search, measure
    ):
        # The shared ub sits below the search's own incumbent: the search
        # prunes against it and exhausts, which proves only lb >= that
        # bound. The witness would live on the bus, so no certificate.
        name, root_lb, root_ub = ROOT_GAP[measure]
        control = LocalControl(upper_bound=root_lb)
        result = search(instance(name), control=control)
        assert not result.optimal
        assert (result.lower_bound, result.upper_bound) == (root_lb, root_ub)
        assert control.best_lower == root_lb

    @pytest.mark.parametrize("search, measure", EXACT_SEARCHES)
    def test_exact_search_stops_cooperatively(self, search, measure):
        control = LocalControl()
        control.stop = True
        result = search(instance(UNCERTIFIED_AT_ROOT[measure]), control=control)
        assert result.nodes_expanded == 0
        assert not result.optimal
        assert result.lower_bound < result.upper_bound
        assert control.best_upper == result.upper_bound
