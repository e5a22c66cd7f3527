"""Fitness evaluators on the bitset kernel.

Every GA/SAIGA/SA/tabu fitness call runs on interned bitmasks. The
greedy tie rule of ghw fitness follows the job count:

* at ``jobs=1`` the heuristics score with
  :func:`~repro.genetic.ga_ghw.make_ghw_evaluator`, whose covers break
  ties with the run's ``rng`` as in the thesis (uncached);
* process-pool workers (``jobs > 1``) cannot share that ``rng``, so
  they score with :func:`make_bit_ghw_evaluator`, whose covers break
  ties deterministically and go through the shared cover cache.

Treewidth fitness has no ties to break: :func:`make_tw_evaluator` serves
every job count.

Both evaluators here publish ``kernel_evaluations`` and ``cover_cache``
hit/miss deltas to the ambient :mod:`repro.obs` metrics once per call
(not per bag), so instrumentation stays out of the inner loop.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cache import cover_cache
from repro.kernels.elimination import bit_ordering_ghw, bit_ordering_width
from repro.obs.runtime import current


def make_tw_evaluator(graph: Graph):
    """``ordering -> width`` evaluator for ``ordering_width`` on ``graph``."""
    bg = BitGraph.from_graph(graph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_width(bg, bg.order_of(ordering))
        metrics = current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="tw").inc()
        return width

    return evaluate


def make_bit_ghw_evaluator(hypergraph: Hypergraph):
    """Cached greedy-cover evaluator for ``ordering_ghw`` on ``hypergraph``.

    Greedy covers break ties deterministically (smallest edge name by
    ``repr``), matching ``rng=None``, and every cover goes through the
    shared cover cache. This is what process-pool workers score with;
    the thesis's randomised tie-breaking
    (:func:`~repro.genetic.ga_ghw.make_ghw_evaluator` with an ``rng``)
    runs on the same kernel but is never cached, because cached covers
    must not depend on evaluation order.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    cache = cover_cache()
    seen = {"counts": cache.counts()}

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_ghw(bh, [bh.index[v] for v in ordering], cache=cache)
        metrics = current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="ghw").inc()
            counts = cache.counts()
            last = seen["counts"]
            for event, now, before in (
                ("hit", counts[0], last[0]),
                ("miss", counts[1], last[1]),
                ("eviction", counts[2], last[2]),
            ):
                if now > before:
                    metrics.counter("cover_cache", event=event).inc(
                        now - before
                    )
            seen["counts"] = counts
        return width

    return evaluate
