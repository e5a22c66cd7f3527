"""GA-ghw: genetic algorithm for ghw upper bounds (Chapter 7, Section 7.1).

Identical to GA-tw except for the fitness function: an ordering's fitness
is the largest *greedy set-cover* size over its elimination bags
(Figure 7.1 + Figure 7.2). The greedy cover makes every fitness value an
upper bound on the exact cover width, so the best fitness found is a
valid ghw upper bound. Bags and covers are computed on the bitset
kernel (:mod:`repro.kernels`).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.decompositions.elimination import elimination_bags
from repro.genetic.engine import GAParameters, GAResult, run_ga
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.obs.control import SolverControl
from repro.setcover.greedy import greedy_set_cover


def make_ghw_evaluator(
    hypergraph: Hypergraph,
    rng: random.Random | None = None,
):
    """The Figure 7.1 evaluation closure for ``hypergraph``.

    The hypergraph is interned to a :class:`BitHypergraph` once; each
    call computes the ordering's bag masks by bucket propagation and
    covers every bag greedily, both on the bitset kernel. Ties break
    randomly when ``rng`` is given, matching the thesis (uncached, one
    ``rng.choice`` per greedy step), and deterministically otherwise.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        bags = elimination_bags(bh, ordering)
        return max(
            (
                len(greedy_set_cover(bag, bh, rng=rng))
                for bag in bags.values()
            ),
            default=0,
        )

    return evaluate


def ga_ghw(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    seed: int | random.Random = 0,
    seed_heuristics: bool = True,
    time_limit: float | None = None,
    target: int | None = None,
    jobs: int = 1,
    control: SolverControl | None = None,
    resume_state: dict | None = None,
) -> GAResult:
    """Run GA-ghw on ``hypergraph``; best fitness is a ghw upper bound.

    Fitness always runs on the :mod:`repro.kernels` bitmask kernel, and
    the greedy tie rule follows ``jobs``. At ``jobs=1`` (the default)
    ties break randomly from this run's ``rng`` as the thesis does,
    uncached. ``jobs > 1`` fans each population out over a process pool;
    pool workers cannot share the parent's ``rng``, so they break ties
    deterministically and cache covers in their own cover cache.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    parameters = parameters or GAParameters()

    vertices: Sequence[Vertex] = sorted(hypergraph.vertices(), key=repr)
    if len(vertices) <= 1 or hypergraph.num_edges() == 0:
        return run_ga(
            vertices,
            lambda _ordering: 0 if hypergraph.num_edges() == 0 else 1,
            GAParameters(population_size=2, max_iterations=0),
            rng,
        )

    primal = hypergraph.primal_graph()
    seeds: list[list[Vertex]] = []
    if seed_heuristics:
        seeds = [
            min_fill_ordering(primal, rng),
            min_degree_ordering(primal, rng),
        ]

    evaluate, batch_evaluate, closer = _make_evaluators(hypergraph, jobs, rng)
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


def _make_evaluators(hypergraph: Hypergraph, jobs: int, rng: random.Random):
    """(per-individual, per-population, close) evaluators for ``jobs``:
    the run's random ties in-process, a deterministic-tie pool beyond."""
    if jobs > 1:
        from repro.kernels.parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(hypergraph, measure="ghw", jobs=jobs)
        return evaluator, evaluator.evaluate_population, evaluator.close
    return make_ghw_evaluator(hypergraph, rng=rng), None, None


def ga_ghw_upper_bound(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    seed: int = 0,
    runs: int = 1,
    time_limit: float | None = None,
) -> int:
    """Best ghw upper bound over ``runs`` independent GA-ghw runs."""
    best: int | None = None
    for run in range(max(1, runs)):
        result = ga_ghw(
            hypergraph,
            parameters=parameters,
            seed=seed + run,
            time_limit=time_limit,
        )
        if best is None or result.best_fitness < best:
            best = result.best_fitness
    assert best is not None
    return best
