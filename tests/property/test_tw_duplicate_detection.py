"""A*-tw and BB-tw stay exact with duplicate detection on the eliminated set.

Both searches skip a child whose set of eliminated vertices was already
reached (A*-tw) or exhausted (BB-tw) at no higher width. That interacts
with pruning rule 2 and with forcing, which both restrict a node's
children by the path that reached it; DESIGN.md argues the combination is
sound. These tests check it against
:func:`tests.reference.reference_treewidth`, which uses no orderings, no
pruning rule and no reduction, on seeded random graphs for every
``(use_pr2, use_reductions)`` combination, and check that node budgets
and a portfolio bound dropping mid-run (after table entries were
recorded under a looser bound) still leave a sound bracket.
"""

from __future__ import annotations

import random

import pytest

from repro.hypergraphs.graph import Graph
from repro.instances.registry import instance
from repro.obs.control import LocalControl
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.verify.certify import certify_tw_witness
from tests.reference import reference_treewidth

SEARCHES = {"astar-tw": astar_treewidth, "bb-tw": branch_and_bound_treewidth}
COMBINATIONS = [(True, True), (True, False), (False, True), (False, False)]


def random_graph(seed: int) -> Graph:
    """5-13 vertices at edge density 0.2-0.7; odd seeds label vertices by
    int, even seeds by str, so the ``repr`` tie order varies."""
    rng = random.Random(seed)
    n = rng.randint(5, 13)
    density = rng.uniform(0.2, 0.7)
    if seed % 2:
        labels: list = list(range(n))
    else:
        labels = [f"v{rng.randint(0, 99)}_{i}" for i in range(n)]
    graph = Graph(vertices=labels)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                graph.add_edge(labels[i], labels[j])
    return graph


@pytest.mark.parametrize("seed", range(120))
def test_searches_match_the_subset_dp_oracle(seed):
    graph = random_graph(seed)
    expected = reference_treewidth(graph)
    for name, search in SEARCHES.items():
        for use_pr2, use_reductions in COMBINATIONS:
            result = search(
                graph,
                use_pr2=use_pr2,
                use_reductions=use_reductions,
                rng=random.Random(seed),
            )
            case = (name, use_pr2, use_reductions)
            assert result.optimal, case
            assert result.value == expected, case
            assert certify_tw_witness(graph, result.ordering, expected), case


@pytest.mark.parametrize("seed", range(40))
def test_node_budgets_end_in_sound_brackets(seed):
    """Stale A* pops are not charged, so a budgeted run still stops on
    its node count with ``lb <= tw <= ub``."""
    graph = random_graph(seed)
    expected = reference_treewidth(graph)
    for name, search in SEARCHES.items():
        for node_limit in (1, 10):
            result = search(graph, node_limit=node_limit, rng=random.Random(seed))
            assert result.nodes_expanded <= node_limit, name
            assert result.lower_bound <= expected <= result.upper_bound, name
            assert certify_tw_witness(graph, result.ordering, result.upper_bound), name


class DroppingControl(LocalControl):
    """A bus whose shared upper bound drops to ``to`` once the search has
    offered ``after`` checkpoints (one per expanded node)."""

    def __init__(self, after: int, to: int) -> None:
        super().__init__()
        self.after = after
        self.to = to

    def checkpoint(self, state: dict) -> None:
        super().checkpoint(state)
        if len(self.checkpoints) == self.after:
            self.upper_bound = self.to


def _drop_cases():
    yield "myciel4", instance("myciel4"), 10
    for seed in (3, 8, 21):
        graph = random_graph(seed)
        yield f"random{seed}", graph, reference_treewidth(graph)


@pytest.mark.parametrize("search_name", sorted(SEARCHES))
@pytest.mark.parametrize("after", [1, 5, 40])
@pytest.mark.parametrize("below", [0, 1], ids=["to-tw", "to-tw-minus-1"])
def test_bound_dropping_mid_run_keeps_the_bracket_sound(search_name, after, below):
    search = SEARCHES[search_name]
    for label, graph, width in _drop_cases():
        control = DroppingControl(after=after, to=width - below)
        result = search(graph, rng=random.Random(0), control=control)
        assert result.lower_bound <= width <= result.upper_bound, label
        assert certify_tw_witness(graph, result.ordering, result.upper_bound), label
        if control.best_lower is not None:
            assert control.best_lower <= width, label


# Graphs on which a set of eliminated vertices is reached again, after it
# was first reached (A*-tw) or exhausted (BB-tw) at a higher width. The
# cheaper path must be expanded again, since its completions may be
# cheaper; a table that dropped every repeated set regardless of ``g``
# expands 28 and 8 nodes here instead.
REACHED_AGAIN_CHEAPER = {
    "astar-tw": (
        13,
        [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6),
         (1, 9), (1, 11), (2, 3), (2, 4), (2, 7), (2, 8), (2, 11), (3, 6),
         (3, 8), (4, 5), (4, 7), (4, 8), (4, 10), (4, 12), (5, 7), (5, 10),
         (5, 12), (6, 8), (6, 9), (6, 11), (10, 12)],
        ("minor-min-width", "minor-gamma-r"),
        5,
        32,
    ),
    "bb-tw": (
        12,
        [(0, 2), (0, 6), (1, 3), (1, 4), (1, 5), (1, 8), (2, 6), (2, 9),
         (3, 6), (3, 7), (3, 8), (3, 9), (4, 6), (4, 7), (4, 9), (4, 10),
         (5, 8), (5, 10), (6, 7), (7, 9), (7, 10), (8, 9), (9, 10)],
        ("degeneracy",),
        4,
        9,
    ),
}


@pytest.mark.parametrize("search_name", sorted(REACHED_AGAIN_CHEAPER))
def test_a_set_reached_again_more_cheaply_is_expanded(search_name):
    n, edges, lb_methods, width, nodes = REACHED_AGAIN_CHEAPER[search_name]
    graph = Graph(vertices=range(n), edges=edges)
    result = SEARCHES[search_name](
        graph, use_reductions=False, lb_methods=lb_methods, rng=random.Random(0)
    )
    assert result.value == width == reference_treewidth(graph)
    assert result.nodes_expanded == nodes
