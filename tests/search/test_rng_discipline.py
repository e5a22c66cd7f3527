"""The exact searches draw random numbers only for their root bounds.

Per-node lower bounds tie on ``repr`` (``rng=None``) and run on the
bitmask kernel, so a search leaves its ``rng`` exactly where replaying
its root calls alone leaves it. That pins the seeded root incumbents —
and with them every reported upper bound of a budgeted search — and
makes per-node work independent of the seed.
"""

from __future__ import annotations

import random

import pytest

from repro.bounds.ghw_lower import tw_ksc_width_remaining
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.instances.registry import instance
from repro.search.astar_ghw import astar_ghw
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw, initial_ghw_incumbent
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.setcover.exact import ExactSetCoverSolver

LB_METHODS = ("minor-min-width", "minor-gamma-r")


def _replay_tw_roots(graph, rng: random.Random) -> int:
    treewidth_lower_bound(graph, methods=LB_METHODS, rng=rng)
    return upper_bound_ordering(graph, "min-fill", rng)[0]


def _replay_ghw_roots(hypergraph, rng: random.Random) -> int:
    primal = hypergraph.primal_graph()
    tw_ksc_width_remaining(hypergraph, primal, tw_methods=LB_METHODS, rng=rng)
    solver = ExactSetCoverSolver(hypergraph.edges())
    return initial_ghw_incumbent(hypergraph, solver, rng)[0]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "search, name, replay",
    [
        (branch_and_bound_treewidth, "myciel4", _replay_tw_roots),
        (astar_treewidth, "myciel4", _replay_tw_roots),
        (branch_and_bound_ghw, "b06", _replay_ghw_roots),
        (astar_ghw, "b06", _replay_ghw_roots),
    ],
    ids=["bb-tw", "astar-tw", "bb-ghw", "astar-ghw"],
)
def test_search_consumes_rng_only_at_the_root(search, name, replay, seed):
    problem = instance(name)
    searched = random.Random(seed)
    result = search(problem, node_limit=60, rng=searched)
    replayed = random.Random(seed)
    root_upper = replay(problem, replayed)
    assert searched.getstate() == replayed.getstate()
    assert result.upper_bound <= root_upper


@pytest.mark.parametrize(
    "lb_methods, nodes",
    [(LB_METHODS, 131), (("degeneracy",), 550)],
    ids=["combined", "degeneracy-only"],
)
def test_astar_tw_myciel4_node_counts(lb_methods, nodes):
    """The node counts ``bench_tables_output.txt`` reports."""
    result = astar_treewidth(instance("myciel4"), lb_methods=lb_methods)
    assert result.value == 10
    assert result.nodes_expanded == nodes
