"""Tabu search over elimination orderings.

Table 6.6 of the thesis compares GA-tw against the best previously
published DIMACS upper bounds, which include Clautiaux et al.'s tabu
search [13]. This module supplies that style of competitor:

* the neighbourhood of an ordering is the set of single-element
  *insertion* moves (the thesis's best mutation, applied exhaustively
  on a sample of positions),
* moves that touch recently-moved vertices are tabu for a fixed tenure
  unless they improve on the best width seen (aspiration),
* the walk restarts from the incumbent when it stalls.

Fitness callables are shared with the GA and SA, keeping the three
upper-bound heuristics directly comparable.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.genetic.anytime import AnytimeLoop
from repro.genetic.problem import OrderingProblem, solve
from repro.hypergraphs.graph import Vertex
from repro.obs.control import SolverControl

Permutation = list[Vertex]
Evaluator = Callable[[Sequence[Vertex]], int]


@dataclass
class TabuParameters:
    iterations: int = 100
    tenure: int = 8
    neighbourhood_sample: int = 30
    stall_restart: int = 25

    def validated(self) -> "TabuParameters":
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.tenure < 0:
            raise ValueError("tenure must be >= 0")
        if self.neighbourhood_sample < 1:
            raise ValueError("need at least one sampled neighbour")
        if self.stall_restart < 1:
            raise ValueError("stall threshold must be >= 1")
        return self


@dataclass
class TabuResult:
    best_fitness: int
    best_individual: Permutation
    evaluations: int = 0
    iterations: int = 0
    history: list[int] = field(default_factory=list)
    elapsed: float = 0.0

    metrics: dict = field(default_factory=dict)
    """``repro.obs`` snapshot at run end (empty when uninstrumented)."""


def tabu_search(
    elements: Sequence[Vertex],
    evaluate: Evaluator,
    parameters: TabuParameters | None = None,
    seed: int | random.Random = 0,
    initial: Sequence[Vertex] | None = None,
    time_limit: float | None = None,
    target: int | None = None,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> TabuResult:
    """Tabu-search an ordering; smaller fitness is better.

    ``control`` attaches the walk to a portfolio bound bus (cooperative
    stop, best-so-far publication, one resume snapshot per iteration);
    ``resume_state`` continues a snapshotted walk at its saved iteration
    (the tabu list is serialised as ``[vertex, expiry]`` pairs so the
    snapshot survives a JSON round trip).
    """
    parameters = (parameters or TabuParameters()).validated()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    if initial is not None:
        current = list(initial)
        if sorted(current, key=repr) != sorted(elements, key=repr):
            raise ValueError("initial ordering must permute the elements")
    else:
        current = list(elements)
        rng.shuffle(current)
    n = len(current)

    run = AnytimeLoop("tabu", rng, time_limit, target, control, resume_state)
    metrics = run.metrics
    moves_applied = metrics.counter("moves", solver="tabu", outcome="applied")
    moves_stalled = metrics.counter("moves", solver="tabu", outcome="stalled")
    restarts_total = metrics.counter("restarts", solver="tabu")
    evaluations_total = metrics.counter("evaluations", solver="tabu")

    with obs.current().tracer.span(
        "tabu", tenure=parameters.tenure, iterations=parameters.iterations
    ):
        if resume_state is None:
            current_fitness = evaluate(current)
            best, best_fitness = list(current), current_fitness
            evaluations = 1
            evaluations_total.inc()
            history = [best_fitness]
            tabu_until: dict[Vertex, int] = {}
            stalled = 0
            iteration = 0
        else:
            current = list(resume_state["current"])
            current_fitness = int(resume_state["current_fitness"])
            best = list(resume_state["best_individual"])
            best_fitness = int(resume_state["best_fitness"])
            evaluations = int(resume_state.get("evaluations", 0))
            history = list(resume_state.get("history", [best_fitness]))
            tabu_until = {
                vertex: int(expiry)
                for vertex, expiry in resume_state.get("tabu", [])
            }
            stalled = int(resume_state.get("stalled", 0))
            iteration = int(resume_state.get("iteration", 0))
        run.publish(best_fitness, best)

        def snapshot() -> dict:
            return {
                "best_fitness": best_fitness,
                "best_individual": list(best),
                "current": list(current),
                "current_fitness": current_fitness,
                "tabu": [[vertex, expiry] for vertex, expiry in tabu_until.items()],
                "stalled": stalled,
                "iteration": iteration,
                "evaluations": evaluations,
                "history": list(history),
            }

        run.checkpoint(snapshot)
        while iteration < parameters.iterations and not run.stopped(best_fitness):
            best_move: tuple[int, int] | None = None
            best_move_fitness: int | None = None
            for _ in range(parameters.neighbourhood_sample):
                source = rng.randrange(n)
                destination = rng.randrange(n)
                if source == destination:
                    continue
                vertex = current[source]
                neighbour = list(current)
                neighbour.pop(source)
                neighbour.insert(destination, vertex)
                fitness = evaluate(neighbour)
                evaluations += 1
                evaluations_total.inc()
                is_tabu = tabu_until.get(vertex, -1) >= iteration
                if is_tabu and fitness >= best_fitness:
                    continue  # tabu and no aspiration
                if best_move_fitness is None or fitness < best_move_fitness:
                    best_move = (source, destination)
                    best_move_fitness = fitness
            if best_move is None:
                stalled += 1
                moves_stalled.inc()
            else:
                source, destination = best_move
                vertex = current[source]
                current.pop(source)
                current.insert(destination, vertex)
                current_fitness = best_move_fitness  # type: ignore[assignment]
                tabu_until[vertex] = iteration + parameters.tenure
                moves_applied.inc()
                if current_fitness < best_fitness:
                    best, best_fitness = list(current), current_fitness
                    stalled = 0
                    run.publish(best_fitness, best)
                else:
                    stalled += 1
            if stalled >= parameters.stall_restart:
                current = list(best)
                current_fitness = best_fitness
                tabu_until.clear()
                stalled = 0
                restarts_total.inc()
            history.append(best_fitness)
            iteration += 1
            run.checkpoint(snapshot)

    return TabuResult(
        best_fitness=best_fitness,
        best_individual=best,
        evaluations=evaluations,
        iterations=len(history) - 1,
        history=history,
        elapsed=run.budget.elapsed(),
        metrics=run.finish(best_fitness),
    )


def _tabu(instance, measure, parameters, seed, time_limit, control, resume_state):
    """Tabu search from the min-fill ordering of the measure's ordering
    problem."""

    def search(problem: OrderingProblem) -> TabuResult:
        return tabu_search(
            problem.elements,
            problem.evaluate,
            parameters=parameters,
            seed=problem.rng,
            initial=problem.min_fill(),
            time_limit=time_limit,
            control=control,
            resume_state=resume_state,
        )

    return solve(instance, measure, seed, TabuResult, search)


def tabu_treewidth(
    graph,
    parameters: TabuParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> TabuResult:
    """Tabu-search upper bound on the treewidth of ``graph``.

    Widths are evaluated on the :mod:`repro.kernels` bitmask kernel.
    """
    return _tabu(graph, "tw", parameters, seed, time_limit, control, resume_state)


def tabu_ghw(
    hypergraph,
    parameters: TabuParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> TabuResult:
    """Tabu-search upper bound on ``ghw(hypergraph)``.

    Greedy cover widths are evaluated on the bitmask kernel, with
    greedy ties broken by the run's ``rng`` as in the thesis.
    """
    return _tabu(
        hypergraph, "ghw", parameters, seed, time_limit, control, resume_state
    )
