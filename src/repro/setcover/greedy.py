"""The greedy set-cover heuristic (Figure 7.2, after Chvatal [11]).

Covering a bag with as few hyperedges as possible is the set-cover
subproblem at the heart of every ghw computation in the thesis. The
greedy heuristic repeatedly takes the hyperedge covering the most
still-uncovered vertices; ties are broken randomly (as in the thesis) or
deterministically by edge name, depending on whether a random source is
supplied. The greedy cover size is within ``H(n)`` (harmonic) of optimal,
which in practice is close-to-optimal for the instances considered.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping

from repro.hypergraphs.graph import Vertex, vertex_sort_key
from repro.hypergraphs.hypergraph import EdgeName
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.cover import (  # UncoverableError is re-exported here
    UncoverableError,
    greedy_cover_mask,
)
from repro.obs.runtime import current


def greedy_set_cover(
    target: Iterable[Vertex] | int,
    edges: Mapping[EdgeName, Iterable[Vertex]] | BitHypergraph,
    rng: random.Random | None = None,
) -> list[EdgeName]:
    """Cover ``target`` with edges from ``edges``; return the chosen names.

    Parameters
    ----------
    target:
        The vertices to cover (a chi-label during bucket elimination),
        or a bag bitmask when ``edges`` is a :class:`BitHypergraph`.
    edges:
        All available hyperedges: a name -> vertices mapping, interned
        with :meth:`BitHypergraph.from_edges` on each call, or an
        already interned :class:`BitHypergraph`.
    rng:
        Optional random source for tie-breaking: among the edges of
        maximum gain, listed in edge insertion order, the loop takes
        the ``rng._randbelow(count)``-th at every step, the pick
        ``rng.choice`` makes on that list. Without it ties break toward the
        smallest edge name by ``repr``, which keeps evaluation
        deterministic for exact algorithms and tests.

    Both forms run the one greedy loop,
    :func:`~repro.kernels.cover.greedy_cover_indices`, and give the same
    cover and the same random stream for the same edges.

    Raises
    ------
    UncoverableError
        If some target vertex appears in no edge at all: after the
        loop's draws, except for a vertex a :class:`BitHypergraph` does
        not hold, which raises before any draw.
    """
    metrics = current().metrics
    if metrics.enabled:
        metrics.counter("setcover", algo="greedy", event="call").inc()
    if not isinstance(edges, BitHypergraph):
        # The target's vertices are interned too: one in no edge is left
        # uncovered, and raises after the loop's draws, as in the thesis.
        target = set(target)
        vertices = target.union(*edges.values())
        edges = BitHypergraph.from_edges(
            edges, sorted(vertices, key=vertex_sort_key)
        )
    if not isinstance(target, int):
        target = edges.bag_mask(target)
    return edges.names_of(greedy_cover_mask(edges, target, rng))
