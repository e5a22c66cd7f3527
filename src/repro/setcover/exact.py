"""Exact minimum set cover.

The thesis solves the per-bag set-cover problems exactly with an IP solver
when proving optimal generalized hypertree widths (Section 2.5.2). No IP
solver is available offline; the library's one exact cover is the
branch and bound over bitmasks in :func:`repro.kernels.cover.exact_cover_mask`
(greedy first incumbent, branching on a least-covered vertex, the
``ceil(|uncovered| / max_gain)`` bound, dominance preprocessing).

:class:`ExactSetCoverSolver` is its facade. It interns the edge family
once into a :class:`~repro.kernels.bithypergraph.BitHypergraph` (or takes
one), and answers every lookup through the process-wide cover cache
(:mod:`repro.kernels.cache`) keyed on the bag mask, which pays off across
the thousands of highly-similar bags a BB-ghw run evaluates — and across
*solvers*: every solver built over the same interned family shares one
memo table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro import obs
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import EdgeName
from repro.kernels.bithypergraph import BitHypergraph, bits_of
from repro.kernels.cache import cover_cache
from repro.kernels.cover import cover_mask

# ``greedy_set_cover`` stays importable from here, as it always was.
from repro.setcover.greedy import UncoverableError, greedy_set_cover

__all__ = [
    "ExactSetCoverSolver",
    "UncoverableError",
    "exact_cover_size",
    "exact_set_cover",
    "greedy_set_cover",
]


class ExactSetCoverSolver:
    """Optimal covers over one interned edge family, cached across calls.

    ``edges`` is a ``name -> vertices`` mapping, interned once (vertices
    ranked by :func:`~repro.hypergraphs.graph.vertex_sort_key`), or a
    :class:`BitHypergraph`, used as it is: its vertex indexing is the
    one bag masks passed to :meth:`cover` are read in.
    """

    def __init__(
        self, edges: Mapping[EdgeName, Iterable[Vertex]] | BitHypergraph
    ) -> None:
        self.bh = (
            edges
            if isinstance(edges, BitHypergraph)
            else BitHypergraph.from_edges(edges)
        )
        self._cache = cover_cache()

    def _mask_of(self, target: Iterable[Vertex]) -> int:
        """Intern ``target``; unknown vertices are uncoverable."""
        index = self.bh.index
        mask = 0
        unknown: list[Vertex] = []
        for vertex in set(target):
            i = index.get(vertex)
            if i is None:
                unknown.append(vertex)
            else:
                mask |= 1 << i
        if unknown:
            incidence = self.bh.incidence_masks
            missing = unknown + [
                self.bh.vertices[i] for i in bits_of(mask) if not incidence[i]
            ]
            raise UncoverableError(
                f"vertices {sorted(map(repr, missing))} appear in no hyperedge"
            )
        return mask

    def cover(self, target: int | Iterable[Vertex]) -> list[EdgeName]:
        """An optimal cover of ``target``; raises if uncoverable.

        ``target`` is a bag mask in ``self.bh``'s indexing or an iterable
        of vertices. Returns edge names.
        """
        mask = target if isinstance(target, int) else self._mask_of(target)
        if not mask:
            return []
        nodes = [0]
        cover = cover_mask(self.bh, mask, "exact", self._cache, nodes)
        metrics = obs.current().metrics
        if metrics.enabled:
            # Only a lookup that missed the cache runs the search.
            event = "miss" if nodes[0] else "hit"
            metrics.counter("setcover_cache", event=event).inc()
            if nodes[0]:
                metrics.counter("setcover_nodes").inc(nodes[0])
        return self.bh.names_of(cover)

    def cover_size(self, target: int | Iterable[Vertex]) -> int:
        return len(self.cover(target))


def exact_set_cover(
    target: Iterable[Vertex],
    edges: Mapping[EdgeName, Iterable[Vertex]],
) -> list[EdgeName]:
    """One-shot exact cover (builds a throwaway solver)."""
    return ExactSetCoverSolver(edges).cover(target)


def exact_cover_size(
    target: Iterable[Vertex],
    edges: Mapping[EdgeName, Iterable[Vertex]],
) -> int:
    return len(exact_set_cover(target, edges))
