"""SAIGA-ghw: self-adaptive island GA for ghw upper bounds (Section 7.2).

GA-ghw's control parameters (crossover rate, mutation rate, tournament
group size) had to be tuned by hand in Chapter 6; SAIGA removes the
tuning experiments by evolving the parameters *with* the populations:

* the population is split into islands arranged on a ring (Figure 7.3),
* each island carries its own **parameter vector** (Section 7.2.2) and
  runs the plain GA-ghw loop with it for one epoch,
* after each epoch the islands' best individuals **migrate** to the next
  island on the ring (replacing its worst individual),
* each parameter vector is **mutated** with log-normal/Gaussian noise
  (Section 7.2.4, Figure 7.4), and
* **neighbour orientation** (Section 7.2.5) pulls an island's parameters
  toward the ring neighbour that improved more in the last epoch, so
  good settings spread without global coordination.

The returned best fitness is a valid ghw upper bound for exactly the same
reason as GA-ghw's (greedy covers only overestimate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.genetic.anytime import AnytimeLoop
from repro.genetic.crossover import CROSSOVER_OPERATORS
from repro.genetic.engine import GAParameters, GAResult, next_generation
from repro.genetic.mutation import MUTATION_OPERATORS
from repro.genetic.problem import OrderingProblem, solve
from repro.genetic.selection import best_individual
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl

Permutation = list[Vertex]


@dataclass
class ParameterVector:
    """An island's evolvable control parameters (Section 7.2.2).

    Rates live in [0.05, 1.0]; the group size in [2, 6]; operator choices
    are categorical genes over the chapter-4 operator sets.
    """

    crossover_rate: float
    mutation_rate: float
    group_size: int
    crossover: str
    mutation: str

    RATE_MIN = 0.05
    RATE_MAX = 1.0
    GROUP_MIN = 2
    GROUP_MAX = 6

    @classmethod
    def random(cls, rng: random.Random) -> "ParameterVector":
        """Section 7.2.3: parameters start uniformly over their ranges."""
        return cls(
            crossover_rate=rng.uniform(cls.RATE_MIN, cls.RATE_MAX),
            mutation_rate=rng.uniform(cls.RATE_MIN, cls.RATE_MAX),
            group_size=rng.randint(cls.GROUP_MIN, cls.GROUP_MAX),
            crossover=rng.choice(sorted(CROSSOVER_OPERATORS)),
            mutation=rng.choice(sorted(MUTATION_OPERATORS)),
        )

    def mutated(self, rng: random.Random, strength: float = 0.15) -> "ParameterVector":
        """Figure 7.4: Gaussian-perturb rates, jitter the discrete genes."""
        def clamp(value: float) -> float:
            return min(self.RATE_MAX, max(self.RATE_MIN, value))

        group = self.group_size
        if rng.random() < strength:
            group = min(
                self.GROUP_MAX,
                max(self.GROUP_MIN, group + rng.choice((-1, 1))),
            )
        crossover = self.crossover
        if rng.random() < strength:
            crossover = rng.choice(sorted(CROSSOVER_OPERATORS))
        mutation = self.mutation
        if rng.random() < strength:
            mutation = rng.choice(sorted(MUTATION_OPERATORS))
        return ParameterVector(
            crossover_rate=clamp(self.crossover_rate + rng.gauss(0, strength)),
            mutation_rate=clamp(self.mutation_rate + rng.gauss(0, strength)),
            group_size=group,
            crossover=crossover,
            mutation=mutation,
        )

    def oriented_toward(
        self, other: "ParameterVector", rng: random.Random, pull: float = 0.5
    ) -> "ParameterVector":
        """Section 7.2.5: move this vector toward a better neighbour's."""
        return ParameterVector(
            crossover_rate=self.crossover_rate
            + pull * (other.crossover_rate - self.crossover_rate),
            mutation_rate=self.mutation_rate
            + pull * (other.mutation_rate - self.mutation_rate),
            group_size=other.group_size if rng.random() < pull else self.group_size,
            crossover=other.crossover if rng.random() < pull else self.crossover,
            mutation=other.mutation if rng.random() < pull else self.mutation,
        )

    def to_dict(self) -> dict:
        return {
            "crossover_rate": self.crossover_rate,
            "mutation_rate": self.mutation_rate,
            "group_size": self.group_size,
            "crossover": self.crossover,
            "mutation": self.mutation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParameterVector":
        return cls(
            crossover_rate=float(data["crossover_rate"]),
            mutation_rate=float(data["mutation_rate"]),
            group_size=int(data["group_size"]),
            crossover=str(data["crossover"]),
            mutation=str(data["mutation"]),
        )

    def as_ga_parameters(
        self, population_size: int, epoch_generations: int
    ) -> GAParameters:
        return GAParameters(
            population_size=population_size,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            group_size=self.group_size,
            max_iterations=epoch_generations,
            crossover=self.crossover,
            mutation=self.mutation,
        )


@dataclass
class _Island:
    population: list[Permutation]
    fitnesses: list[int]
    parameters: ParameterVector
    previous_best: int
    improvement: int = 0


@dataclass
class SAIGAResult(GAResult):
    """GA result plus the per-island parameter trajectories."""

    final_parameters: list[ParameterVector] = field(default_factory=list)


def saiga_ghw(
    hypergraph: Hypergraph,
    islands: int = 4,
    island_population: int = 20,
    epochs: int = 10,
    epoch_generations: int = 10,
    seed: int | random.Random = 0,
    time_limit: float | None = None,
    target: int | None = None,
    jobs: int = 1,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> SAIGAResult:
    """Run SAIGA-ghw; the best fitness found is a ghw upper bound.

    Fitness runs on the :mod:`repro.kernels` bitmask kernel with the
    greedy tie rule of :func:`~repro.genetic.ga_ghw.ga_ghw`: the run's
    random ties at ``jobs=1``; ``jobs > 1`` fans each island's
    population evaluation out over a process pool, with deterministic
    ties through each worker's cover memo. Defaults reproduce the seed
    behaviour exactly.
    """

    def search(problem: OrderingProblem) -> SAIGAResult:
        return _saiga_loop(
            problem,
            islands=max(1, islands),
            island_population=island_population,
            epochs=epochs,
            epoch_generations=epoch_generations,
            run=AnytimeLoop(
                "saiga", problem.rng, time_limit, target, control, resume_state
            ),
            resume_state=resume_state,
        )

    return solve(hypergraph, "ghw", seed, SAIGAResult, search, jobs=jobs)


def _saiga_loop(
    problem: OrderingProblem,
    islands: int,
    island_population: int,
    epochs: int,
    epoch_generations: int,
    run: AnytimeLoop,
    resume_state: dict | None,
) -> SAIGAResult:
    """The Figure 7.3 epoch/migration loop."""
    rng = problem.rng
    metrics = run.metrics
    epochs_total = metrics.counter("epochs", solver="saiga")
    generations_total = metrics.counter("generations", solver="saiga")
    evaluations_total = metrics.counter("evaluations", solver="saiga")
    migrations_total = metrics.counter("migrations", solver="saiga")
    tracer = obs.current().tracer
    with tracer.span(
        "saiga", islands=islands, island_population=island_population
    ):
        ring: list[_Island] = []
        evaluations = 0
        if resume_state is None:
            with tracer.span("init_islands"):
                for _ in range(islands):
                    population = []
                    for _ in range(island_population):
                        individual = problem.elements[:]
                        rng.shuffle(individual)
                        population.append(individual)
                    fitnesses = problem.evaluate_population(population)
                    evaluations += len(population)
                    ring.append(
                        _Island(
                            population=population,
                            fitnesses=fitnesses,
                            parameters=ParameterVector.random(rng),
                            previous_best=min(fitnesses),
                        )
                    )
            evaluations_total.inc(evaluations)

            champion, champion_fitness = best_individual(
                [ind for island in ring for ind in island.population],
                [fit for island in ring for fit in island.fitnesses],
            )
            history = [champion_fitness]
            generations = 0
            epoch = 0
        else:
            for saved in resume_state["islands"]:
                ring.append(
                    _Island(
                        population=[list(ind) for ind in saved["population"]],
                        fitnesses=list(saved["fitnesses"]),
                        parameters=ParameterVector.from_dict(saved["parameters"]),
                        previous_best=int(saved["previous_best"]),
                        improvement=int(saved.get("improvement", 0)),
                    )
                )
            champion = list(resume_state["best_individual"])
            champion_fitness = int(resume_state["best_fitness"])
            history = list(resume_state.get("history", [champion_fitness]))
            generations = int(resume_state.get("generations", 0))
            evaluations = int(resume_state.get("evaluations", 0))
            epoch = int(resume_state.get("epoch", 0))
        run.publish(champion_fitness, champion)

        def snapshot() -> dict:
            return {
                "best_fitness": champion_fitness,
                "best_individual": list(champion),
                "islands": [
                    {
                        "population": [list(ind) for ind in island.population],
                        "fitnesses": list(island.fitnesses),
                        "parameters": island.parameters.to_dict(),
                        "previous_best": island.previous_best,
                        "improvement": island.improvement,
                    }
                    for island in ring
                ],
                "history": list(history),
                "generations": generations,
                "evaluations": evaluations,
                "epoch": epoch,
            }

        run.checkpoint(snapshot)
        while epoch < epochs and not run.stopped(champion_fitness):
            epoch += 1
            epochs_total.inc()
            for island in ring:
                parameters = island.parameters.as_ga_parameters(
                    island_population, epoch_generations
                )
                for _generation in range(epoch_generations):
                    island.population, island.fitnesses = next_generation(
                        island.population,
                        island.fitnesses,
                        parameters,
                        rng,
                        problem.evaluate_population,
                    )
                    evaluations += island_population
                    evaluations_total.inc(island_population)
                    generations += 1
                    generations_total.inc()
                epoch_best = min(island.fitnesses)
                island.improvement = island.previous_best - epoch_best
                island.previous_best = epoch_best
                if epoch_best < champion_fitness:
                    champion, champion_fitness = best_individual(
                        island.population, island.fitnesses
                    )
                    run.publish(champion_fitness, champion)
            history.append(champion_fitness)

            # Migration: each island's best replaces the next island's worst.
            bests = [
                best_individual(island.population, island.fitnesses)
                for island in ring
            ]
            for index, island in enumerate(ring):
                migrant, migrant_fitness = bests[index - 1]
                worst = max(
                    range(island_population),
                    key=lambda i: (island.fitnesses[i], i),
                )
                island.population[worst] = migrant
                island.fitnesses[worst] = migrant_fitness
                migrations_total.inc()

            # Self-adaptation: mutate parameters, then orient toward the
            # better-improving ring neighbour (Sections 7.2.4-7.2.5).
            new_parameters: list[ParameterVector] = []
            for index, island in enumerate(ring):
                vector = island.parameters.mutated(rng)
                neighbours = (ring[index - 1], ring[(index + 1) % len(ring)])
                better = max(neighbours, key=lambda isl: isl.improvement)
                if better.improvement > island.improvement:
                    vector = vector.oriented_toward(better.parameters, rng)
                new_parameters.append(vector)
            for island, vector in zip(ring, new_parameters):
                island.parameters = vector
            run.checkpoint(snapshot)

    return SAIGAResult(
        best_fitness=champion_fitness,
        best_individual=champion,
        generations=generations,
        evaluations=evaluations,
        history=history,
        elapsed=run.budget.elapsed(),
        metrics=run.finish(champion_fitness),
        final_parameters=[island.parameters for island in ring],
    )
