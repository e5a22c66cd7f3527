"""GA-ghw: genetic algorithm for ghw upper bounds (Chapter 7, Section 7.1).

Identical to GA-tw except for the fitness function: an ordering's fitness
is the largest *greedy set-cover* size over its elimination bags
(Figure 7.1 + Figure 7.2). The greedy cover makes every fitness value an
upper bound on the exact cover width, so the best fitness found is a
valid ghw upper bound. Bags and covers are computed on the bitset
kernel (:mod:`repro.kernels`).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.decompositions.elimination import elimination_bags
from repro.genetic.engine import GAParameters, GAResult, ga
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.obs.control import SolverControl
from repro.setcover.greedy import greedy_set_cover


def make_ghw_evaluator(
    hypergraph: Hypergraph,
    rng: random.Random | None = None,
):
    """The Figure 7.1 evaluation closure for ``hypergraph``.

    The hypergraph is interned to a :class:`BitHypergraph` once; each
    call computes the ordering's bag masks by bucket propagation and
    covers every bag greedily, both on the bitset kernel. Ties break
    randomly when ``rng`` is given, matching the thesis (uncached, one
    ``rng.choice`` per greedy step), and deterministically otherwise.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        bags = elimination_bags(bh, ordering)
        return max(
            (
                len(greedy_set_cover(bag, bh, rng=rng))
                for bag in bags.values()
            ),
            default=0,
        )

    return evaluate


def ga_ghw(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    seed: int | random.Random = 0,
    seed_heuristics: bool = True,
    time_limit: float | None = None,
    target: int | None = None,
    jobs: int = 1,
    control: SolverControl = SolverControl(),
    resume_state: dict | None = None,
) -> GAResult:
    """Run GA-ghw on ``hypergraph``; best fitness is a ghw upper bound.

    Fitness always runs on the :mod:`repro.kernels` bitmask kernel, and
    the greedy tie rule follows ``jobs``. At ``jobs=1`` (the default)
    ties break randomly from this run's ``rng`` as the thesis does,
    uncached. ``jobs > 1`` fans each population out over a process pool;
    pool workers cannot share the parent's ``rng``, so they break ties
    deterministically and cache covers in their own cover cache. The
    remaining parameters are those of
    :func:`~repro.genetic.ga_tw.ga_treewidth`.
    """
    return ga(
        hypergraph,
        "ghw",
        parameters,
        seed,
        seed_heuristics,
        time_limit,
        target,
        jobs,
        control,
        resume_state,
    )
