"""PR2 judged after the elimination equals PR2 judged before it.

The searches ask PR2 about the last eliminated vertex ``w`` only once
its child survived the bound, so the swap rules read the state *after*
``w`` was eliminated: ``masks[i]`` is still ``w``'s old row, a
neighbour's fill mask from the undo record is what ``w`` held that the
neighbour missed, and ``masks[j] & ~row`` is what the neighbour held
that ``w`` missed. Here, on random graphs and on the primals of random
hypergraphs, in mid-search states, every live ``w`` and every candidate
prefix ``(1 << k) - 1`` is asked of both rules after ``w`` is
eliminated, and the answer is compared with the rule of
:mod:`repro.reductions.pruning` evaluated by neighbourhood sets on the
graph before.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.instances.dimacs_like import random_gnp
from repro.reductions.pruning import (
    pr2_prune_children,
    swap_safe_ghw,
    swap_safe_treewidth,
)
from tests.property.test_ghw_search_oracle import random_hypergraph


def rule_before(graph: Graph, w: Vertex, index: dict) -> tuple[int, int]:
    """The tw and ghw swap masks of ``w`` by the docstring rule on
    ``graph``, where ``w`` is still present: a non-neighbour always
    swaps; for tw a neighbour ``v`` too when ``w`` has a neighbour
    outside ``N[v]`` and ``v`` one outside ``N[w]``."""
    tw = ghw = 0
    w_neighbours = graph.neighbours(w)
    for v in graph.vertices():
        if v == w:
            continue
        bit = 1 << index[v]
        if not graph.has_edge(v, w):
            tw |= bit
            ghw |= bit
            continue
        v_neighbours = graph.neighbours(v)
        if w_neighbours - v_neighbours - {v} and v_neighbours - w_neighbours - {w}:
            tw |= bit
    return tw, ghw


def assert_post_elimination_rules(working: EliminationGraph) -> None:
    """Both rules, asked after each live vertex is eliminated, about
    every candidate prefix, agree with :func:`rule_before`."""
    labels, index = working.labels, working.index
    for w in sorted(working.vertices(), key=repr):
        before = working.graph()
        expected_tw, expected_ghw = rule_before(before, w, index)
        children = [v for v in working.vertices() if v != w]
        judged = working.alive & ~(1 << index[w])
        working.eliminate(w)
        vertex, i, fills = working.last_record()
        assert vertex == w
        for k in range(len(labels) + 1):
            candidates = (1 << k) - 1
            tw = swap_safe_treewidth.mask(working, i, fills, candidates)
            ghw = swap_safe_ghw.mask(working, i, fills, candidates)
            assert tw & judged == expected_tw & candidates
            assert ghw & judged == expected_ghw & candidates
        for rule in (swap_safe_treewidth, swap_safe_ghw):
            # The state after, and a plain graph of the state before.
            assert pr2_prune_children(
                working, w, children, swap_safe=rule
            ) == pr2_prune_children(before, w, children, swap_safe=rule)
        working.restore()


def mid_search(graph: Graph, seed: int, depth: float) -> EliminationGraph:
    """``graph`` interned, with a random share ``depth`` of its vertices
    eliminated, so fill has changed the masks."""
    working = EliminationGraph(graph)
    order = sorted(graph.vertices(), key=repr)
    random.Random(seed).shuffle(order)
    for vertex in order[: int(depth * len(order))]:
        working.eliminate(vertex)
    return working


@given(
    n=st.integers(min_value=0, max_value=10),
    density=st.sampled_from((0.2, 0.45, 0.7, 0.9)),
    seed=st.integers(min_value=0, max_value=10**6),
    depth=st.sampled_from((0.0, 0.25, 0.5)),
)
@settings(max_examples=80, deadline=None)
def test_rules_after_elimination_on_random_graphs(n, density, seed, depth):
    graph = random_gnp(n, density, seed=seed)
    assert_post_elimination_rules(mid_search(graph, seed, depth))


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    depth=st.sampled_from((0.0, 0.25, 0.5)),
)
@settings(max_examples=60, deadline=None)
def test_rules_after_elimination_on_hypergraph_primals(seed, depth):
    primal = random_hypergraph(seed).primal_graph()
    assert_post_elimination_rules(mid_search(primal, seed, depth))
