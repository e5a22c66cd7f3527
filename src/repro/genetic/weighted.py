"""Weighted triangulation: the Larrañaga objective (Section 4.5).

The GA the thesis builds on (Larrañaga et al.) does not minimise width
but the *weight* of the triangulation of a Bayesian network's moral
graph,

    w(TD) = log2( sum over bags of the product of the state counts of
                  the bag's variables ),

i.e. the log of the total clique-table size — the true cost of exact
inference. This module provides that objective and a GA wrapper, so the
library covers the thesis's chapter-4.5 lineage as well as its own
width-based chapters. With uniform state counts ``n_i = d`` the
objective orders orderings (asymptotically) like width does, which the
tests exercise.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence

from repro.decompositions.elimination import elimination_bags
from repro.genetic.engine import GAParameters, GAResult, run_ga
from repro.genetic.problem import OrderingProblem, solve
from repro.hypergraphs.graph import Graph, Vertex
from repro.kernels.bithypergraph import BitGraph, bits_of


def triangulation_weight(
    graph: Graph | BitGraph,
    ordering: Sequence[Vertex],
    states: Mapping[Vertex, int],
) -> float:
    """``log2 sum_bags prod_{v in bag} states[v]`` for the ordering's
    bucket-elimination bags.

    Callers that weigh many orderings of one graph pass it interned
    once as a :class:`~repro.kernels.BitGraph`.
    """
    bg = graph if isinstance(graph, BitGraph) else BitGraph.from_graph(graph)
    labels = bg.vertices
    total = 0.0
    for bag in elimination_bags(bg, ordering).values():
        table = 1.0
        for i in bits_of(bag):
            vertex = labels[i]
            count = states[vertex]
            if count < 1:
                raise ValueError(f"state count of {vertex!r} must be >= 1")
            table *= count
        total += table
    return math.log2(total) if total > 0 else 0.0


def ga_weighted_triangulation(
    graph: Graph,
    states: Mapping[Vertex, int],
    parameters: GAParameters | None = None,
    seed: int | random.Random = 0,
    time_limit: float | None = None,
) -> GAResult:
    """Minimise the Larrañaga weight over elimination orderings.

    The engine works on integer fitnesses; weights are scaled by 1000
    and rounded, which preserves the ordering of solutions to three
    decimal places of log2 table size.
    """
    missing = graph.vertices() - set(states)
    if missing:
        raise ValueError(
            f"missing state counts for {sorted(map(repr, missing))}"
        )
    bg = BitGraph.from_graph(graph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        return round(1000 * triangulation_weight(bg, ordering, states))

    def search(problem: OrderingProblem) -> GAResult:
        return run_ga(
            problem.elements,
            problem.evaluate,
            parameters or GAParameters(),
            problem.rng,
            seeds=[problem.min_fill(), problem.min_degree()],
            time_limit=time_limit,
        )

    return solve(graph, "tw", seed, GAResult, search, evaluate=evaluate)
