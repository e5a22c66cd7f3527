"""GA-tw: genetic algorithm for treewidth upper bounds (Chapter 6).

An individual is an elimination ordering of the graph's vertices; its
fitness is the width of the tree decomposition that bucket/vertex
elimination builds from it (Figure 6.2's fast evaluation). Applied to the
primal graph of a hypergraph, the same algorithm upper-bounds the
hypergraph's treewidth (Lemma 1).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.genetic.engine import GAParameters, GAResult, run_ga
from repro.hypergraphs.graph import Graph, Vertex
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
    control: SolverControl | None = None,
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
    if isinstance(graph, Hypergraph):
        graph = graph.primal_graph()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    parameters = parameters or GAParameters()

    vertices: Sequence[Vertex] = sorted(graph.vertices(), key=repr)
    if len(vertices) <= 1:
        return run_ga(
            vertices,
            lambda _ordering: 0,
            GAParameters(
                population_size=2, max_iterations=0
            ),
            rng,
        )

    seeds: list[list[Vertex]] = []
    if seed_heuristics:
        seeds = [min_fill_ordering(graph, rng), min_degree_ordering(graph, rng)]

    from repro.kernels.evaluators import make_tw_evaluator

    batch_evaluate = None
    closer = None
    if jobs > 1:
        from repro.kernels.parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(graph, measure="tw", jobs=jobs)
        evaluate = evaluator
        batch_evaluate = evaluator.evaluate_population
        closer = evaluator.close
    else:
        evaluate = make_tw_evaluator(graph)
    try:
        return run_ga(
            vertices,
            evaluate,
            parameters,
            rng,
            seeds=seeds,
            time_limit=time_limit,
            target=target,
            batch_evaluate=batch_evaluate,
            control=control,
            resume_state=resume_state,
        )
    finally:
        if closer is not None:
            closer()


def ga_treewidth_upper_bound(
    graph: Graph | Hypergraph,
    parameters: GAParameters | None = None,
    seed: int = 0,
    runs: int = 1,
    time_limit: float | None = None,
) -> int:
    """Best width over ``runs`` independent GA-tw runs (thesis reports
    min/max/avg of ten runs; benches use this helper)."""
    best: int | None = None
    for run in range(max(1, runs)):
        result = ga_treewidth(
            graph, parameters=parameters, seed=seed + run, time_limit=time_limit
        )
        if best is None or result.best_fitness < best:
            best = result.best_fitness
    assert best is not None
    return best
