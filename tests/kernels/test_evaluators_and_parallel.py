"""Unit tests for the kernel evaluators, parallel evaluation and the
jobs knob exposed by the heuristics, the runner and the CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.decompositions.elimination import ordering_width
from repro.genetic.engine import GAParameters, run_ga
from repro.genetic.ga_ghw import ga_ghw, make_ghw_evaluator
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.evaluators import make_bit_ghw_evaluator, make_tw_evaluator
from repro.kernels.parallel import ParallelEvaluator


def small_hypergraph():
    return Hypergraph(
        {"a": {0, 1, 2}, "b": {2, 3}, "c": {3, 4, 5}, "d": {5, 0}, "e": {1, 4}}
    )


def small_graph():
    return Graph(
        vertices=range(6),
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
    )


def orderings(vertices, count=6, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ordering = list(vertices)
        rng.shuffle(ordering)
        out.append(ordering)
    return out


def test_tw_evaluators_agree():
    graph = small_graph()
    evaluate = make_tw_evaluator(graph)
    for ordering in orderings(sorted(graph.vertices())):
        assert evaluate(ordering) == ordering_width(graph, ordering)


def test_ghw_evaluators_agree():
    # the pool's cached evaluator and the uncached one without an rng
    # both break greedy ties deterministically
    h = small_hypergraph()
    cached = make_bit_ghw_evaluator(h)
    uncached = make_ghw_evaluator(h)
    for ordering in orderings(sorted(h.vertices())):
        assert cached(ordering) == uncached(ordering)


def test_parallel_evaluator_matches_serial():
    h = small_hypergraph()
    population = orderings(sorted(h.vertices()), count=7)
    serial = [make_bit_ghw_evaluator(h)(o) for o in population]
    with ParallelEvaluator(h, measure="ghw", jobs=2) as pe:
        assert pe.evaluate_population(population) == serial
        # single-ordering calls bypass the pool but agree too
        assert [pe(o) for o in population] == serial
        stats = pe.stats()
    assert stats["jobs"] == 2 and stats["tasks"] == len(population)


def test_parallel_evaluator_tw_and_tiny_populations():
    g = small_graph()
    population = orderings(sorted(g.vertices()), count=1)
    with ParallelEvaluator(g, measure="tw", jobs=2) as pe:
        # < 2 individuals short-circuits to in-process evaluation
        assert pe.evaluate_population(population) == [
            make_tw_evaluator(g)(population[0])
        ]


def test_parallel_evaluator_rejects_bad_args():
    with pytest.raises(ValueError):
        ParallelEvaluator(small_hypergraph(), jobs=0)
    with pytest.raises(ValueError):
        ParallelEvaluator(small_hypergraph(), measure="hw")


def test_run_ga_batch_evaluate_equivalent():
    h = small_hypergraph()
    vertices = sorted(h.vertices())
    params = GAParameters(population_size=8, max_iterations=4)
    evaluate = make_ghw_evaluator(h)

    def batch(population):
        return [evaluate(individual) for individual in population]

    serial = run_ga(vertices, evaluate, params, random.Random(3))
    batched = run_ga(
        vertices, evaluate, params, random.Random(3), batch_evaluate=batch
    )
    assert serial.best_fitness == batched.best_fitness
    assert serial.history == batched.history


def test_ga_ghw_backends_and_jobs_agree():
    # jobs=2 scores with the pool's deterministic ties: the same run as
    # the engine driven in-process by the cached deterministic evaluator
    h = small_hypergraph()
    params = GAParameters(population_size=8, max_iterations=3)
    parallel = ga_ghw(h, parameters=params, seed=5, jobs=2)
    rng = random.Random(5)
    primal = h.primal_graph()
    serial = run_ga(
        sorted(h.vertices(), key=repr),
        make_bit_ghw_evaluator(h),
        params,
        rng,
        seeds=[min_fill_ordering(primal, rng), min_degree_ordering(primal, rng)],
    )
    assert serial.best_fitness == parallel.best_fitness
    assert serial.history == parallel.history


def test_ga_tw_and_saiga_pools_match_serial():
    g = small_graph()
    params = GAParameters(population_size=6, max_iterations=2)
    serial = ga_treewidth(g, parameters=params, seed=1)
    pooled = ga_treewidth(g, parameters=params, seed=1, jobs=2)
    assert serial.best_fitness == pooled.best_fitness
    assert serial.history == pooled.history
    result = saiga_ghw(
        small_hypergraph(),
        islands=2,
        island_population=4,
        epochs=1,
        epoch_generations=1,
        seed=1,
        jobs=2,
    )
    assert result.best_fitness >= 1


def test_experiment_runner_backend_jobs_meta():
    from repro.experiments.runner import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        instances=["adder_3"],
        measure="ghw",
        algorithms=["ga"],
        jobs=1,
        ga_parameters=GAParameters(population_size=4, max_iterations=2),
    )
    table = run_experiment(spec, collect_reports=True)
    assert "backend" not in table.reports[0].meta
    assert table.reports[0].meta["jobs"] == 1
    with pytest.raises(TypeError, match="backend"):
        ExperimentSpec(instances=["adder_3"], backend="bitset")
    with pytest.raises(ValueError, match="jobs"):
        ExperimentSpec(instances=["adder_3"], jobs=0).validated()


def test_cli_knob_flags_recorded(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "runs.jsonl"
    code = main(
        [
            "--instance",
            "adder_3",
            "--measure",
            "ghw",
            "--algorithm",
            "ga",
            "--jobs",
            "1",
            "--cover-cache-size",
            "4096",
            "--telemetry-out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text().strip())
    assert "backend" not in report["meta"]
    assert report["meta"]["jobs"] == 1
    assert report["meta"]["cover_cache_size"] == 4096
    assert "hits" in report["meta"]["cover_cache"]
    # restore the default so later tests see the stock capacity
    from repro.kernels.cache import DEFAULT_MAXSIZE, configure_cover_cache

    configure_cover_cache(DEFAULT_MAXSIZE)


def test_cli_rejects_bad_knobs(capsys):
    from repro.cli import main

    assert main(["--instance", "adder_3", "--jobs", "0"]) == 2
    assert main(["--instance", "adder_3", "--cover-cache-size", "0"]) == 2
