"""The ordering problem the upper-bound heuristics search.

GA-tw (Ch. 6), GA-ghw and SAIGA-ghw (Ch. 7), simulated annealing and
tabu search all search elimination orderings scored by a width fitness.
They differ in how they search, not in what they search over, so the
set-up lives here once per run:

* the elements, sorted by ``repr``;
* the instance the measure's :data:`~repro.core.widths.WIDTHS` row
  prepares (a treewidth instance that is a hypergraph is replaced by
  its primal graph, Lemma 1);
* the fitness the row names: an ordering's width for tw, its greedy
  cover width for ghw (Figure 7.1). At ``jobs=1`` ghw covers break ties
  from the run's ``rng`` (Figure 7.2); beyond, a
  :class:`~repro.kernels.parallel.ParallelEvaluator` pool scores whole
  populations with the row's deterministic-tie fitness;
* the min-fill and min-degree orderings of the primal graph, drawn from
  the run's ``rng``;
* one trivial rule: an instance with fewer than two vertices has a
  single ordering, scored by the fitness like any other. An uncovered
  vertex therefore raises
  :class:`~repro.setcover.greedy.UncoverableError` here as it does in
  the exact ghw searches.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from functools import cached_property
from typing import TypeVar

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.core.widths import WIDTHS
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph

Evaluator = Callable[[Sequence[Vertex]], int]
Result = TypeVar("Result")


class OrderingProblem:
    """Elements, fitness and seed orderings of one heuristic run.

    Built by :func:`solve`; ``evaluate`` replaces the measure's fitness
    (the weighted-triangulation GA scores orderings its own way).
    """

    def __init__(
        self,
        instance: Graph | Hypergraph,
        measure: str,
        rng: random.Random,
        jobs: int = 1,
        evaluate: Evaluator | None = None,
    ) -> None:
        width = WIDTHS[measure]
        instance = width.prepare(instance)
        self.instance = instance
        self.rng = rng
        self.elements: list[Vertex] = sorted(instance.vertices(), key=repr)
        self._pool = None
        self.evaluate: Evaluator
        if evaluate is not None:
            self.evaluate = evaluate
        elif jobs > 1:
            from repro.kernels.parallel import ParallelEvaluator

            self._pool = ParallelEvaluator(instance, measure=measure, jobs=jobs)
            self.evaluate = self._pool
        else:
            self.evaluate = width.fitness(instance, rng)

    @cached_property
    def graph(self) -> Graph:
        """The primal graph the seed orderings are drawn on."""
        return WIDTHS["tw"].prepare(self.instance)

    def evaluate_population(
        self, population: Sequence[Sequence[Vertex]]
    ) -> list[int]:
        """Fitness of every individual, in population order (over the
        pool when there is one)."""
        if self._pool is not None:
            return self._pool.evaluate_population(population)
        return [self.evaluate(individual) for individual in population]

    def min_fill(self) -> list[Vertex]:
        return min_fill_ordering(self.graph, self.rng)

    def min_degree(self) -> list[Vertex]:
        return min_degree_ordering(self.graph, self.rng)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()


def solve(
    instance: Graph | Hypergraph,
    measure: str,
    seed: int | random.Random,
    result: Callable[..., Result],
    search: Callable[[OrderingProblem], Result],
    jobs: int = 1,
    evaluate: Evaluator | None = None,
) -> Result:
    """``search(problem)`` on the measure's ordering problem for
    ``instance``, closing the problem afterwards.

    ``seed`` is an int or a ready :class:`random.Random`. An instance
    with fewer than two vertices is not searched: its single ordering is
    scored and returned as ``result(best_fitness=..., best_individual=...,
    evaluations=1, history=[...])``.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    problem = OrderingProblem(instance, measure, rng, jobs, evaluate)
    try:
        if len(problem.elements) < 2:
            ordering = list(problem.elements)
            fitness = problem.evaluate(ordering)
            return result(
                best_fitness=fitness,
                best_individual=ordering,
                evaluations=1,
                history=[fitness],
            )
        return search(problem)
    finally:
        problem.close()
