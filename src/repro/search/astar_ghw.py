"""A*-ghw: best-first exact generalized hypertree width (Chapter 9).

The best-first counterpart of BB-ghw, built like A*-tw (Chapter 5) on
the ghw ingredients: ``g`` is the largest exact bag-cover size of the
prefix, ``h`` the tw-ksc-width lower bound of the remaining instance, and
``f = max(g, h, f(parent))``. As in A*-tw, children are evaluated
lazily: pushed with key ``max(g, f(parent))`` after their exact bag
cover, bounded only when popped. Popped keys never decrease, so the
``f`` of the last expanded state is an anytime ghw *lower bound* — the
quantity Tables 9.1/9.2 report for instances the thesis could not close.

Goal test: once every hyperedge-restricted remainder can be covered
within ``g`` (PR1's certificate, here checked as "the greedy cover of the
whole remainder is at most g"), finishing in any order costs ``g``; the
first such state popped is optimal. The greedy cover runs only when the
size-profile floor of the remainder's cover number is at most ``g``.

As in BB-ghw, bags and the remainder are masks of one hypergraph
interned in the elimination graph's vertex order, the forced
simplicial vertex is computed once per eliminated set, and ``h`` is kept
per set as a proven interval that answers every window it settles.

The search itself is :func:`repro.search.driver.astar` over the ghw
measure of :mod:`repro.search.bb_ghw`.
"""

from __future__ import annotations

import random

# The benchmark's layer tracer wraps these bindings; the calls go through bb_ghw's.
from repro.bounds.ghw_lower import tw_ksc_width_remaining  # noqa: F401
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr2_prune_children  # noqa: F401
from repro.reductions.simplicial import find_simplicial  # noqa: F401
from repro.search.bb_ghw import GhwMeasure, initial_ghw_incumbent  # noqa: F401
from repro.search.common import SearchResult
from repro.search.driver import astar
from repro.setcover.greedy import greedy_set_cover  # noqa: F401


def astar_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` via best-first search.

    ``control`` attaches the search to a portfolio bound bus exactly as
    in :func:`~repro.search.astar_tw.astar_treewidth`; once external
    pruning has occurred, the returned/published lower bound is capped at
    the smallest external bound ever pruned against.
    """
    return astar(
        GhwMeasure(hypergraph, lb_methods, use_reductions),
        time_limit, node_limit, use_pr2, rng, control,
    )
