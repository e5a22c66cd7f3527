"""The tw-ksc-width lower bound for generalized hypertree width (Fig. 8.1).

Section 8.1 of the thesis combines two ingredients into a ghw lower bound:

1. a treewidth lower bound ``t`` on the primal graph — every tree
   decomposition (hence every GHD) of the hypergraph has a bag with at
   least ``t + 1`` vertices, and
2. a lower bound for the *k-set-cover* problem — a bound on how many
   hyperedges are needed to cover *any* set of ``k = t + 1`` vertices.

Chaining them: some GHD node has ``|chi(p)| >= t + 1``; its lambda-label
covers ``chi(p)``; so ``|lambda(p)|`` is at least the k-set-cover lower
bound, and therefore so is the GHD's width. This holds for *every* GHD,
giving ``ghw(H) >= tw_ksc_width(H)``.

Both ingredients are pluggable; the ablation bench compares the choices.
The bound is also used on *remaining subinstances* during BB-ghw/A*-ghw:
there the hyperedges must be restricted to the not-yet-eliminated
vertices first (a bag of the remaining problem can only be covered by
what the edges still offer inside it), which
:func:`tw_ksc_width_remaining` handles.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import compress

from repro.bounds.lower import treewidth_lower_bound
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.elimination import bit_width_at_most
from repro.setcover.lower_bounds import (
    k_set_cover_lower_bound,
    profile_lower_bound,
    size_profile,
)


def tw_ksc_width(
    hypergraph: Hypergraph,
    tw_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    primal: Graph | None = None,
) -> int:
    """Algorithm tw-ksc-width: a lower bound on ``ghw(hypergraph)``.

    Parameters
    ----------
    hypergraph:
        The instance.
    tw_methods:
        Which treewidth lower bounds to combine (their max is used).
    rng:
        Random tie-breaking for the treewidth heuristics.
    primal:
        The primal graph, if the caller already has it (avoids a rebuild
        in search inner loops).
    """
    if hypergraph.num_edges() == 0:
        return 0
    graph = primal if primal is not None else hypergraph.primal_graph()
    tw_bound = treewidth_lower_bound(graph, methods=tw_methods, rng=rng)
    k = tw_bound + 1
    bound = k_set_cover_lower_bound(k, hypergraph.edges())
    # Any hypergraph with at least one edge needs at least one lambda edge.
    return max(1, bound)


def tw_ksc_width_remaining(
    hypergraph: Hypergraph | BitHypergraph,
    remaining_graph: Graph | EliminationGraph,
    remaining_vertices: Iterable[Vertex] | None = None,
    tw_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    profile: list[int] | None = None,
    *,
    floor: int = 0,
    limit: int | None = None,
    ordering: list[int] | None = None,
) -> int:
    """tw-ksc-width of the instance left after a partial elimination.

    ``remaining_graph`` is the (fill-in-containing) graph after the
    elimination prefix — the searches pass their live
    :class:`EliminationGraph`, whose masks the treewidth bound reads
    directly; its treewidth lower-bounds the width still to be paid.
    Hyperedges are restricted to the remaining vertices: a bag of the
    remaining subproblem lies entirely inside them, so an edge can
    contribute at most its restricted size to any cover.

    The searches pass their interned :class:`BitHypergraph`, whose
    vertex ``i`` is ``remaining_graph.labels[i]``; the restricted sizes
    are then ``popcount(edge & alive)``, and ``profile``, when given, is
    their :func:`remainder_profile` for the live ``alive``, which the
    caller may share with PR1's :func:`remainder_cover_floor`. A
    :class:`Hypergraph` is restricted to ``remaining_vertices``
    (default: the graph's vertices).

    Returns 0 for an empty remainder (nothing left to pay for).

    ``floor`` and ``limit`` ask for the bound ``h`` only inside that
    window: the result ``v`` satisfies ``v <= h``, and ``max(floor, v)``
    equals ``max(floor, h)`` below ``limit`` and reaches ``limit``
    otherwise. ``h = max(1, m)`` for the smallest ``m`` with
    ``profile[m - 1] > t`` (``t`` the treewidth bound), so ``h <= floor``
    exactly when ``t < profile[floor - 1]``, and ``h >= limit`` exactly
    when ``t >= profile[limit - 2]``: the treewidth bound is asked for in
    the window those two thresholds make.

    ``ordering``, indices of ``remaining_graph.labels`` (which must then
    be an :class:`EliminationGraph`), may settle ``h <= floor`` before
    the treewidth bound runs: if that ordering of the live vertices has
    width ``w <= profile[floor - 1] - 1`` on the remaining graph, then
    ``t <= tw <= w`` (every method is a treewidth lower bound), so
    ``h <= floor`` and 1 answers the window.
    """
    if profile is None:
        if isinstance(hypergraph, BitHypergraph):
            profile = remainder_profile(hypergraph, remaining_graph.alive)
        else:
            vertices = (
                set(remaining_vertices)
                if remaining_vertices is not None
                else remaining_graph.vertices()
            )
            if not vertices:
                return 0
            profile = size_profile(
                len(edge) for edge in hypergraph.restrict(vertices).edge_sets()
            )
    if not profile:
        return 0
    size = len(profile)
    if floor <= 0:
        tw_floor = 0
    elif floor <= size:
        tw_floor = profile[floor - 1] - 1
    else:
        return 1  # h <= size < floor: any bound in [1, h] answers
    if limit is None or limit - 2 >= size:
        tw_limit = None  # h <= size < limit
    elif limit <= 1:
        return 1  # 1 <= h: the limit is reached already
    else:
        tw_limit = profile[limit - 2]
    if ordering is not None and tw_floor > 0:
        alive = remaining_graph.alive
        # The live indices in order, filtered by ``alive & 1 << index``.
        live = list(
            compress(ordering, map(alive.__and__, map((1).__lshift__, ordering)))
        )
        if bit_width_at_most(remaining_graph.masks, live, alive, tw_floor):
            return 1  # t <= tw <= tw_floor: h <= floor
    tw_bound = treewidth_lower_bound(
        remaining_graph, methods=tw_methods, rng=rng,
        floor=tw_floor, limit=tw_limit,
    )
    # The size-profile bound dominates ``ceil(k / max size)``.
    return max(1, profile_lower_bound(tw_bound + 1, profile))


def remainder_profile(bh: BitHypergraph, alive: int) -> list[int]:
    """The :func:`~repro.setcover.lower_bounds.size_profile` of the
    non-zero restricted sizes ``popcount(edge & alive)``."""
    return size_profile(
        filter(None, map(int.bit_count, map(alive.__and__, bh.edge_masks)))
    )


def remainder_cover_floor(
    bh: BitHypergraph, alive: int, profile: list[int] | None = None
) -> int:
    """A lower bound on the cover number of the whole remainder ``alive``.

    The size-profile k-set-cover bound with ``k = popcount(alive)`` over
    the restricted edge sizes (``profile``, their
    :func:`remainder_profile`, when the caller has it): no cover of the
    remainder is smaller, so neither is its greedy cover. 0 when the
    edges cannot cover it.
    """
    if profile is None:
        profile = remainder_profile(bh, alive)
    try:
        return profile_lower_bound(alive.bit_count(), profile)
    except ValueError:
        return 0
