"""Fitness evaluators on the bitset kernel.

Every GA/SAIGA/SA/tabu fitness call runs here, on interned bitmasks:

* :func:`make_tw_evaluator` returns the bitset treewidth evaluator on
  every backend (treewidth fitness has no ties to break);
* :func:`make_ghw_evaluator_backend` selects only the greedy tie rule.
  ``backend="python"`` gives
  :func:`~repro.genetic.ga_ghw.make_ghw_evaluator`, whose covers break
  ties with the caller's ``rng`` as in the thesis (uncached);
  ``backend="bitset"`` gives :func:`make_bit_ghw_evaluator`, whose
  covers break ties deterministically and go through the shared cover
  cache.

The bitset evaluators publish ``kernel_evaluations`` and ``cover_cache``
hit/miss deltas to the ambient :mod:`repro.obs` metrics once per call
(not per bag), so instrumentation stays out of the inner loop.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cache import cover_cache
from repro.kernels.elimination import bit_ordering_ghw, bit_ordering_width

#: Backend names accepted throughout the library.
BACKENDS = ("python", "bitset")


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


def make_bit_tw_evaluator(graph: Graph):
    """Bitset evaluator for ``ordering_width`` on ``graph``."""
    bg = BitGraph.from_graph(graph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_width(bg, bg.order_of(ordering))
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="tw").inc()
        return width

    return evaluate


def make_bit_ghw_evaluator(hypergraph: Hypergraph, cover: str = "greedy"):
    """Cached evaluator for ``ordering_ghw`` on ``hypergraph``.

    This is what ``backend="bitset"`` selects: greedy covers break ties
    deterministically (smallest edge name by ``repr``), matching
    ``rng=None``, and every cover goes through the shared cover cache.
    The thesis's randomised tie-breaking (``backend="python"``, see
    :func:`~repro.genetic.ga_ghw.make_ghw_evaluator`) runs on the same
    kernel but is never cached, because cached covers must not depend
    on evaluation order.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    cache = cover_cache()
    seen = {"counts": cache.counts()}

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_ghw(
            bh, [bh.index[v] for v in ordering], cover=cover, cache=cache
        )
        metrics = obs.current().metrics
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


def make_tw_evaluator(graph: Graph, backend: str = "python"):
    """``ordering -> width`` evaluator: the bitset evaluator on any backend.

    Treewidth fitness has no ties to break, so ``backend`` selects
    nothing here; it is only checked.
    """
    check_backend(backend)
    return make_bit_tw_evaluator(graph)


def make_ghw_evaluator_backend(
    hypergraph: Hypergraph,
    backend: str = "python",
    cover: str = "greedy",
    rng=None,
):
    """``ordering -> cover width`` evaluator with the backend's tie rule.

    ``"python"``: random ties from ``rng`` (deterministic when ``rng``
    is ``None``), uncached; ``"bitset"``: deterministic ties through
    the cover cache. Both run on the bitset kernel.
    """
    if check_backend(backend) == "bitset":
        return make_bit_ghw_evaluator(hypergraph, cover=cover)
    from repro.genetic.ga_ghw import make_ghw_evaluator

    return make_ghw_evaluator(hypergraph, rng=rng)
