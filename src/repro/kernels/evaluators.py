"""Fitness evaluators on the bitset kernel.

Every GA/SAIGA/SA/tabu fitness call runs on interned bitmasks. The
greedy tie rule of ghw fitness follows the job count:

* at ``jobs=1`` the heuristics score with
  :func:`~repro.genetic.ga_ghw.make_ghw_evaluator`, whose covers break
  ties with the run's ``rng`` as in the thesis (uncached);
* process-pool workers (``jobs > 1``) cannot share that ``rng``, so
  they score with :func:`make_bit_ghw_evaluator`, whose covers break
  ties deterministically and are memoised on its own
  :class:`BitHypergraph`.

Treewidth fitness has no ties to break: :func:`make_tw_evaluator` serves
every job count.

Both evaluators here publish ``kernel_evaluations`` to the ambient
:mod:`repro.obs` metrics once per call (not per bag), the ghw one also
the ``cover_cache`` hit/miss/eviction deltas of its memo, so
instrumentation stays out of the inner loop.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
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
    """Memoised greedy-cover evaluator for ``ordering_ghw`` on ``hypergraph``.

    Greedy covers break ties deterministically (smallest edge name by
    ``repr``), matching ``rng=None``, and are memoised in the
    evaluator's own :class:`BitHypergraph`, exposed as
    ``evaluate.covers``. This is what process-pool workers score with;
    the thesis's randomised tie-breaking
    (:func:`~repro.genetic.ga_ghw.make_ghw_evaluator` with an ``rng``)
    runs on the same kernel but is never memoised, because memoised
    covers must not depend on evaluation order.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    covers = bh.covers
    seen = {"hit": 0, "miss": 0, "eviction": 0}

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_ghw(bh, [bh.index[v] for v in ordering])
        metrics = current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="ghw").inc()
            for event, now in (
                ("hit", covers.hits),
                ("miss", covers.misses),
                ("eviction", covers.evictions),
            ):
                if now > seen[event]:
                    metrics.counter("cover_cache", event=event).inc(
                        now - seen[event]
                    )
                    seen[event] = now
        return width

    evaluate.covers = covers
    return evaluate
