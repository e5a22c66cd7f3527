"""GA-tw: genetic algorithm for treewidth upper bounds (Chapter 6).

An individual is an elimination ordering of the graph's vertices; its
fitness is the width of the tree decomposition that bucket/vertex
elimination builds from it (Figure 6.2's fast evaluation). Applied to the
primal graph of a hypergraph, the same algorithm upper-bounds the
hypergraph's treewidth (Lemma 1).
"""

from __future__ import annotations

import random

from repro.genetic.engine import GAParameters, GAResult, ga
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl


def ga_treewidth(
    graph: Graph | Hypergraph,
    parameters: GAParameters | None = None,
    seed: int | random.Random = 0,
    seed_heuristics: bool = True,
    time_limit: float | None = None,
    target: int | None = None,
    jobs: int = 1,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> GAResult:
    """Run GA-tw on ``graph`` (a hypergraph is replaced by its primal graph).

    Parameters
    ----------
    graph:
        The instance; hypergraphs are decomposed via their primal graph.
    parameters:
        GA control parameters; defaults to the thesis's tuned values
        (POS crossover, ISM mutation, p_c = 1.0, p_m = 0.3, s = 3).
    seed:
        Either an int seed or a ready :class:`random.Random`.
    seed_heuristics:
        Inject min-fill and min-degree orderings into the initial
        population (off reproduces the thesis's purely random start).
    time_limit, target:
        Optional early-stop conditions forwarded to the engine.
    jobs:
        Fitness always runs on the bitmask kernel; ``jobs > 1`` fans
        each population out over a process pool (treewidth has no ties
        to break, so the result does not depend on it).
    control, resume_state:
        Portfolio hooks forwarded to :func:`~repro.genetic.engine.run_ga`.
    """
    return ga(
        graph,
        "tw",
        parameters,
        seed,
        seed_heuristics,
        time_limit,
        target,
        jobs,
        control,
        resume_state,
    )
