"""The generic permutation GA engine behind GA-tw and GA-ghw (Figure 6.1).

Both thesis GAs share every moving part except the fitness function: an
elimination ordering's *width* for GA-tw (Figure 6.2), its greedy *cover
width* for GA-ghw (Figure 7.1). The engine therefore takes the evaluation
as a callable and implements the Figure 6.1 loop verbatim:

  initialise -> evaluate -> [select -> recombine -> mutate -> evaluate]*

Control parameters mirror the thesis: population size ``n``, crossover
rate ``p_c`` (fraction of the population recombined each generation),
mutation rate ``p_m`` (per-individual mutation probability), tournament
group size ``s``, and the iteration budget. The engine also supports a
wall-clock budget and a known-optimum early stop so tests stay fast.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.genetic.anytime import AnytimeLoop
from repro.genetic.crossover import CrossoverOperator, get_crossover
from repro.genetic.mutation import MutationOperator, get_mutation
from repro.genetic.problem import OrderingProblem, solve
from repro.genetic.selection import best_individual, tournament_selection
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl

Permutation = list[Vertex]
Evaluator = Callable[[Sequence[Vertex]], int]
PopulationEvaluator = Callable[[Sequence[Sequence[Vertex]]], list[int]]


@dataclass
class GAParameters:
    """Control parameters of Figure 6.1 (thesis defaults from Ch. 6.3)."""

    population_size: int = 50
    crossover_rate: float = 1.0
    mutation_rate: float = 0.3
    group_size: int = 3
    max_iterations: int = 200
    crossover: str = "POS"
    mutation: str = "ISM"

    def validated(self) -> "GAParameters":
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be in [0, 1]")
        if self.group_size < 1:
            raise ValueError("group size must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("iteration budget must be >= 0")
        get_crossover(self.crossover)
        get_mutation(self.mutation)
        return self


@dataclass
class GAResult:
    """Outcome of a GA run."""

    best_fitness: int
    best_individual: Permutation
    generations: int = 0
    evaluations: int = 0
    history: list[int] = field(default_factory=list)
    """Best-so-far fitness after each generation (generation 0 included)."""

    elapsed: float = 0.0

    metrics: dict = field(default_factory=dict)
    """``repro.obs`` snapshot at run end (empty when uninstrumented)."""


def _initial_population(
    elements: Sequence[Vertex],
    size: int,
    rng: random.Random,
    seeds: Sequence[Sequence[Vertex]] = (),
) -> list[Permutation]:
    """Random permutations, optionally seeded with heuristic orderings."""
    population: list[Permutation] = [list(seed) for seed in seeds[:size]]
    base = list(elements)
    while len(population) < size:
        individual = base[:]
        rng.shuffle(individual)
        population.append(individual)
    return population


def next_generation(
    population: list[Permutation],
    fitnesses: list[int],
    parameters: GAParameters,
    rng: random.Random,
    evaluate_population: PopulationEvaluator,
) -> tuple[list[Permutation], list[int]]:
    """One generation of Figure 6.1: select, recombine, mutate, evaluate.

    GA-tw/GA-ghw run it on their one population, SAIGA on each island
    with the island's parameter vector.
    """
    crossover: CrossoverOperator = get_crossover(parameters.crossover)
    mutation: MutationOperator = get_mutation(parameters.mutation)
    population = tournament_selection(
        population,
        fitnesses,
        parameters.group_size,
        parameters.population_size,
        rng,
    )

    # Recombination: pair up a p_c fraction of the population.
    pair_count = int(parameters.crossover_rate * len(population)) // 2
    if pair_count:
        indices = rng.sample(range(len(population)), 2 * pair_count)
        for k in range(pair_count):
            i, j = indices[2 * k], indices[2 * k + 1]
            child1, child2 = crossover(population[i], population[j], rng)
            population[i], population[j] = child1, child2

    # Mutation: each individual mutates with probability p_m.
    for i in range(len(population)):
        if rng.random() < parameters.mutation_rate:
            population[i] = mutation(population[i], rng)

    return population, list(evaluate_population(population))


def run_ga(
    elements: Sequence[Vertex],
    evaluate: Evaluator,
    parameters: GAParameters,
    rng: random.Random,
    seeds: Sequence[Sequence[Vertex]] = (),
    time_limit: float | None = None,
    target: int | None = None,
    batch_evaluate: PopulationEvaluator | None = None,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> GAResult:
    """Run the Figure 6.1 loop and return the best ordering found.

    Parameters
    ----------
    elements:
        The vertices to permute.
    evaluate:
        Fitness of an ordering (smaller is better).
    parameters:
        Control parameters (validated on entry).
    rng:
        Random source — the run is deterministic given the seed.
    seeds:
        Optional heuristic orderings injected into the initial population.
    time_limit:
        Optional wall-clock cutoff checked once per generation.
    target:
        Optional known optimum; the run stops as soon as it is reached.
    batch_evaluate:
        Optional whole-population evaluator (e.g. a
        :class:`~repro.kernels.parallel.ParallelEvaluator`); when given
        it replaces the per-individual ``evaluate`` loop each generation.
    control:
        Portfolio control, inert by default: the loop stops
        cooperatively, stops early when the champion reaches the
        portfolio-wide lower bound, publishes champion improvements, and
        offers a resume snapshot after every generation (all through
        :class:`~repro.genetic.anytime.AnytimeLoop`).
    resume_state:
        A snapshot previously offered through ``control.checkpoint`` (with
        ``rng_state`` already decoded to a ``random.Random`` state tuple);
        the run continues from that population and generation instead of
        initialising a fresh one.
    """
    parameters = parameters.validated()
    if batch_evaluate is None:

        def batch_evaluate(population):
            return [evaluate(individual) for individual in population]

    run = AnytimeLoop("ga", rng, time_limit, target, control, resume_state)
    tracer = obs.current().tracer
    metrics = run.metrics
    generations_total = metrics.counter("generations", solver="ga")
    evaluations_total = metrics.counter("evaluations", solver="ga")
    generation_seconds = metrics.histogram("generation_seconds", solver="ga")

    with tracer.span(
        "ga",
        population=parameters.population_size,
        crossover=parameters.crossover,
        mutation=parameters.mutation,
    ):
        if resume_state is None:
            with tracer.span("init_population"):
                population = _initial_population(
                    elements, parameters.population_size, rng, seeds
                )
                fitnesses = list(batch_evaluate(population))
            evaluations = len(population)
            evaluations_total.inc(evaluations)
            champion, champion_fitness = best_individual(population, fitnesses)
            history = [champion_fitness]
            generation = 0
        else:
            population = [list(ind) for ind in resume_state["population"]]
            fitnesses = list(resume_state["fitnesses"])
            champion = list(resume_state["best_individual"])
            champion_fitness = int(resume_state["best_fitness"])
            history = list(resume_state.get("history", [champion_fitness]))
            generation = int(resume_state.get("generation", 0))
            evaluations = int(resume_state.get("evaluations", len(population)))
        run.publish(champion_fitness, champion)

        def snapshot() -> dict:
            return {
                "best_fitness": champion_fitness,
                "best_individual": list(champion),
                "population": [list(ind) for ind in population],
                "fitnesses": list(fitnesses),
                "history": list(history),
                "generation": generation,
                "evaluations": evaluations,
            }

        run.checkpoint(snapshot)
        with tracer.span("evolve"):
            while generation < parameters.max_iterations and not run.stopped(
                champion_fitness
            ):
                generation += 1
                generation_started = run.budget.elapsed()
                population, fitnesses = next_generation(
                    population, fitnesses, parameters, rng, batch_evaluate
                )
                evaluations += len(population)
                generations_total.inc()
                evaluations_total.inc(len(population))
                if metrics.enabled:
                    generation_seconds.observe(
                        run.budget.elapsed() - generation_started
                    )
                generation_best, generation_fitness = best_individual(
                    population, fitnesses
                )
                if generation_fitness < champion_fitness:
                    champion, champion_fitness = generation_best, generation_fitness
                    run.publish(champion_fitness, champion)
                history.append(champion_fitness)
                run.checkpoint(snapshot)

    return GAResult(
        best_fitness=champion_fitness,
        best_individual=champion,
        generations=generation,
        evaluations=evaluations,
        history=history,
        elapsed=run.budget.elapsed(),
        metrics=run.finish(champion_fitness),
    )


def ga(
    instance: Graph | Hypergraph,
    measure: str,
    parameters: GAParameters | None,
    seed: int | random.Random,
    seed_heuristics: bool,
    time_limit: float | None,
    target: int | None,
    jobs: int,
    control: SolverControl,
    resume_state: dict | None,
) -> GAResult:
    """GA-tw or GA-ghw: :func:`run_ga` on the measure's ordering problem,
    seeded with its min-fill and min-degree orderings."""

    def search(problem: OrderingProblem) -> GAResult:
        seeds = [problem.min_fill(), problem.min_degree()] if seed_heuristics else []
        return run_ga(
            problem.elements,
            problem.evaluate,
            parameters or GAParameters(),
            problem.rng,
            seeds=seeds,
            time_limit=time_limit,
            target=target,
            batch_evaluate=problem.evaluate_population,
            control=control,
            resume_state=resume_state,
        )

    return solve(instance, measure, seed, GAResult, search, jobs=jobs)
