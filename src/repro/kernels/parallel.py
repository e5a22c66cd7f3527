"""Opt-in process-pool parallel fitness evaluation.

GA/SAIGA populations are embarrassingly parallel: every generation
evaluates ``n`` independent orderings. This module fans a population out
over a :class:`concurrent.futures.ProcessPoolExecutor`; each worker
builds the bitset evaluator once (in the pool initializer) and then
evaluates chunks of orderings, so per-generation IPC is one pickle of the
orderings and one of the integer fitnesses. Workers cannot share the
parent's ``rng``, so ghw fitness breaks greedy ties deterministically
and caches covers (:func:`~repro.kernels.evaluators.make_bit_ghw_evaluator`).

Parallelism is strictly opt-in (``jobs=1`` — the default everywhere —
never spawns a process): on small instances the fork+pickle overhead
dwarfs the evaluation time, and each worker holds its own cover cache,
so cross-candidate sharing happens per worker rather than process-wide.
Use it when single-ordering evaluation is the bottleneck at scale.

Utilization is instrumented: the evaluator counts batches, tasks and
per-worker chunk assignments (:meth:`ParallelEvaluator.stats`) and
publishes ``parallel_eval`` counters plus a ``parallel_workers_used``
gauge to the ambient :mod:`repro.obs` metrics.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph

#: Per-process evaluator state, populated by the pool initializer.
_WORKER_STATE: dict = {}


def _build_evaluator(measure: str, instance: Graph | Hypergraph):
    # Imported here: the width table sits above the kernels it names.
    from repro.core.widths import lookup_width

    return lookup_width(measure).pool_fitness(instance)


def _init_worker(measure: str, instance: Graph | Hypergraph) -> None:
    _WORKER_STATE["evaluate"] = _build_evaluator(measure, instance)


def _evaluate_chunk(
    orderings: list[list[Vertex]],
) -> tuple[int, list[int]]:
    evaluate = _WORKER_STATE["evaluate"]
    return os.getpid(), [evaluate(ordering) for ordering in orderings]


class ParallelEvaluator:
    """Population-batch fitness evaluation, optionally over a pool.

    Callable two ways: ``evaluator(ordering)`` evaluates one ordering
    in-process (the pool is bypassed), and
    ``evaluator.evaluate_population(population)`` evaluates a whole
    population — across the pool when ``jobs > 1``.
    """

    def __init__(
        self,
        instance: Graph | Hypergraph,
        measure: str = "ghw",
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._local = _build_evaluator(measure, instance)
        self._pool: ProcessPoolExecutor | None = None
        if jobs > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(measure, instance),
            )
        self.batches = 0
        self.tasks = 0
        self.worker_chunks: dict[int, int] = {}

    def __call__(self, ordering: Sequence[Vertex]) -> int:
        return self._local(list(ordering))

    def evaluate_population(
        self, population: Sequence[Sequence[Vertex]]
    ) -> list[int]:
        """Fitness of every individual, in population order."""
        if self._pool is None or len(population) < 2:
            return [self._local(list(ordering)) for ordering in population]
        chunks: list[list[list[Vertex]]] = [[] for _ in range(self.jobs)]
        for i, ordering in enumerate(population):
            chunks[i % self.jobs].append(list(ordering))
        futures = [
            self._pool.submit(_evaluate_chunk, chunk)
            for chunk in chunks
            if chunk
        ]
        per_chunk: list[list[int]] = []
        for future in futures:
            pid, fitnesses = future.result()
            self.worker_chunks[pid] = self.worker_chunks.get(pid, 0) + 1
            per_chunk.append(fitnesses)
        fitnesses = [0] * len(population)
        used = 0
        for chunk_index, chunk_fitnesses in enumerate(per_chunk):
            for offset, fitness in enumerate(chunk_fitnesses):
                fitnesses[offset * self.jobs + chunk_index] = fitness
                used += 1
        assert used == len(population)
        self.batches += 1
        self.tasks += len(population)
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.counter("parallel_eval", event="batch").inc()
            metrics.counter("parallel_eval", event="task").inc(len(population))
            metrics.gauge("parallel_workers_used").set(len(self.worker_chunks))
        return fitnesses

    def stats(self) -> dict:
        """Batch/task counts and per-worker chunk assignments."""
        return {
            "jobs": self.jobs,
            "batches": self.batches,
            "tasks": self.tasks,
            "worker_chunks": dict(self.worker_chunks),
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
