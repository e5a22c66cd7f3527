"""Exact minimum set cover.

The thesis solves the per-bag set-cover problems exactly with an IP solver
when proving optimal generalized hypertree widths (Section 2.5.2). No IP
solver is available offline; the library's one exact cover is the
branch and bound over bitmasks in :func:`repro.kernels.cover.exact_cover_mask`
(greedy first incumbent, branching on a least-covered vertex, the
``ceil(|uncovered| / max_gain)`` bound, dominance preprocessing).

:class:`ExactSetCoverSolver` is its one front end: no other module calls
the kernel. It interns the edge family once into a
:class:`~repro.kernels.bithypergraph.BitHypergraph` (or takes one),
answers in edge indices of that family, and keeps a memo of what each
bag mask has proven: a lower bound on its cover number and the best
cover found. A lookup may carry a window ``(g, limit)``: the exact
searches only read ``max(g, cover)`` and only ask whether it is below
their pruning limit, so the memo answers when its cover is exact, is
``<= g``, or its bound is ``>= limit``, and otherwise refines the entry
with :func:`~repro.kernels.cover.windowed_cover_mask`. The memo lives
and dies with its solver: no solver reads another's covers, so a run's
``setcover_cache`` counts do not depend on what ran before it. The
exact searches, exact ``ordering_ghw``/``ordering_to_ghd`` and
``exact_cover_width`` each build one solver per call; only
:func:`exact_set_cover` and the witness decomposition map its edge
indices to names.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import EdgeName
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.cover import exact_cover_mask, windowed_cover_mask
from repro.obs.runtime import current

# ``greedy_set_cover`` stays importable from here, as it always was.
from repro.setcover.greedy import UncoverableError, greedy_set_cover

__all__ = [
    "ExactSetCoverSolver",
    "UncoverableError",
    "exact_set_cover",
    "greedy_set_cover",
]


class ExactSetCoverSolver:
    """Optimal covers over one interned edge family, memoised across calls.

    ``edges`` is a ``name -> vertices`` mapping, interned once (vertices
    ranked by :func:`~repro.hypergraphs.graph.vertex_sort_key`), or a
    :class:`BitHypergraph`, used as it is: its vertex indexing is the
    one bag masks passed to :meth:`cover` are read in, and its edge
    indexing the one covers answer in.
    """

    def __init__(
        self, edges: Mapping[EdgeName, Iterable[Vertex]] | BitHypergraph
    ) -> None:
        self.bh = (
            edges
            if isinstance(edges, BitHypergraph)
            else BitHypergraph.from_edges(edges)
        )
        # bag mask -> (proven lower bound, best cover found); the cover
        # is optimal when its size meets the bound.
        self._memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def cover(
        self,
        target: int | Iterable[Vertex],
        g: int | None = None,
        limit: int | None = None,
    ) -> tuple[int, ...]:
        """A cover of ``target`` as edge indices; raises if uncoverable.

        ``target`` is a bag mask in ``self.bh``'s indexing or an iterable
        of vertices. Without a window the cover is optimal. With one
        (``g``, ``limit``; ``None`` leaves that end open) its size ``v``
        only meets the window contract against the cover number ``c``:
        ``max(g, v) == max(g, c)`` whenever ``max(g, c) < limit``, and
        ``max(g, v) >= limit`` otherwise.
        """
        mask = target if isinstance(target, int) else self.bh.bag_mask(target)
        if not mask:
            return ()
        memo = self._memo
        entry = memo.get(mask)
        metrics = current().metrics
        if entry is not None:
            lower, cover = entry
            size = len(cover)
            if (
                size == lower
                or (g is not None and size <= g)
                or (limit is not None and lower >= limit)
            ):
                if metrics.enabled:
                    metrics.counter("setcover_cache", event="hit").inc()
                return cover
        nodes = [0]
        if g is None and limit is None:
            cover = exact_cover_mask(self.bh, mask, nodes)
            lower = len(cover)
        else:
            cover, lower = windowed_cover_mask(self.bh, mask, g or 0, limit, nodes)
        if entry is not None:
            # Both answers hold: keep the higher bound and the smaller cover.
            lower = max(lower, entry[0])
            if len(entry[1]) <= len(cover):
                cover = entry[1]
        memo[mask] = (lower, cover)
        if metrics.enabled:
            metrics.counter("setcover_cache", event="miss").inc()
            if nodes[0]:
                metrics.counter("setcover_nodes").inc(nodes[0])
        return cover


def exact_set_cover(
    target: Iterable[Vertex],
    edges: Mapping[EdgeName, Iterable[Vertex]],
) -> list[EdgeName]:
    """One-shot exact cover as edge names (builds a throwaway solver)."""
    solver = ExactSetCoverSolver(edges)
    return solver.bh.names_of(solver.cover(target))
