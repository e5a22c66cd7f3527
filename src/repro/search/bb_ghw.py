"""BB-ghw: branch and bound for exact generalized hypertree width (Ch. 8).

The search space is the set of elimination orderings (sound and complete
for ghw by Theorems 2 and 3). A search node is an elimination prefix of
the primal graph; its cost ``g`` is the largest *exact* set-cover size of
any bag produced so far — covers are taken over the original hyperedges,
exactly as in Definition 17. Ingredients, following Chapter 8:

* initial incumbent: best of min-fill / min-degree orderings evaluated
  with greedy covers (Section 2.5.2),
* lower bound ``h``: ``tw-ksc-width`` of the remaining instance
  (Section 8.1) — a treewidth lower bound on the remaining (filled) graph
  chained with a k-set-cover lower bound over the hyperedges restricted
  to the remaining vertices,
* reduction: a simplicial vertex of the current graph is forced as the
  only child (Section 8.2; safe for ghw — see DESIGN.md),
* pruning rule 1 in cover form: finishing immediately costs at most the
  cover number of the whole remainder (Section 8.3),
* pruning rule 2 in its non-adjacent (ghw-safe) form (Section 8.3).

The search interns the hypergraph once, in its elimination graph's
vertex order, so a bag is ``(1 << i) | masks[i]`` and the remainder is
``alive``. Bag costs come from one exact-cover solver per search. Its
memo, keyed on bag masks, keeps what each bag has proven (elimination
bags repeat massively), and it prices a bag only as exactly as the
window ``(g, limit)`` the driver passes needs. The remaining filled
graph depends only on the eliminated *set*, so ``h`` is kept per
``alive`` mask, as an interval proven to hold it: ``h`` too is asked
for only inside a window (DESIGN.md, "Windowed lower bounds"), and is
computed again only when the kept interval does not settle the next
one. A window whose answer is ``h <= floor`` is often settled by the
root incumbent ordering's width on the remainder, with no minor walk.
The forced simplicial vertex is found once per mask whose state
survives its bound. The restricted edge sizes, sorted largest
first as prefix sums, are kept for the current ``alive`` mask: ``h``'s
k-set-cover step and PR1's cover floor both read them by bisection.
PR1's greedy remainder cover runs only when that floor says it could
close the node or improve the incumbent (see DESIGN.md).

The search itself is :func:`repro.search.driver.branch_and_bound`; this
module supplies the ghw :class:`~repro.search.driver.Measure`, which
A*-ghw shares.
"""

from __future__ import annotations

import random
import sys

from repro.bounds.ghw_lower import (
    remainder_cover_floor,
    remainder_profile,
    tw_ksc_width_remaining,
)
from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.elimination import bit_ordering_width
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr1_ghw, pr2_prune_children, swap_safe_ghw
from repro.reductions.simplicial import find_simplicial
from repro.search.common import SearchResult
from repro.search.driver import branch_and_bound
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover


#: An ``h`` no search reaches, and the memo entry of an ``alive`` mask
#: whose bound was never asked for.
_UNBOUNDED = sys.maxsize
_UNKNOWN = (0, _UNBOUNDED)


def initial_ghw_incumbent(
    hypergraph: Hypergraph,
    solver: ExactSetCoverSolver,
    rng: random.Random | None = None,
) -> tuple[int, list[Vertex]]:
    """Best heuristic ordering, scored with *exact* covers.

    Greedy covers would also be sound (they only overestimate), but the
    heuristic orderings are few and scoring them exactly gives the search
    a genuinely attainable incumbent. Each bag is priced in the window
    ``(running max, best width so far)``, which leaves the running max
    exact while it stays below the best width; an ordering whose running
    max reaches the best width can no longer win and is dropped. Bags
    are masks of ``solver.bh``, so what the covers prove here is in the
    memo the search reads.
    """
    from repro.decompositions.elimination import elimination_bags

    primal = hypergraph.primal_graph()
    best_width: int | None = None
    best_ordering: list[Vertex] = []
    for build in (min_fill_ordering, min_degree_ordering):
        ordering = build(primal, rng)
        width = 0
        for bag in elimination_bags(solver.bh, ordering).values():
            width = max(width, len(solver.cover(bag, width, best_width)))
            if best_width is not None and width >= best_width:
                break  # it can no longer win: ties keep the first
        if best_width is None or width < best_width:
            best_width, best_ordering = width, ordering
    assert best_width is not None
    return best_width, best_ordering


class GhwMeasure:
    """ghw: a bag costs its exact cover number over the original hyperedges.

    Only the instance without vertices is trivial: a vertex in no
    hyperedge makes the first cover raise ``UncoverableError``. Every
    bound, cover, reduction and PR2 call goes through this module's
    bindings, the names the benchmark's layer tracer wraps.
    """

    kind = "ghw"
    # Duplicate detection stays off: at the benchmark's fixed node budgets
    # it sends the budget into fresh sets, each paying a fresh exact cover
    # and bound (DESIGN.md).
    dedup = False

    def __init__(
        self,
        hypergraph: Hypergraph,
        lb_methods: tuple[str, ...],
        use_reductions: bool,
    ) -> None:
        self.hypergraph = hypergraph
        self.primal = hypergraph.primal_graph()
        self.working = EliminationGraph(self.primal)
        self.bh = BitHypergraph.from_hypergraph(
            hypergraph, vertices=self.working.labels
        )
        self.solver = ExactSetCoverSolver(self.bh)
        self.lb_methods = lb_methods
        self.use_reductions = use_reductions
        self.span_attrs = {
            "vertices": hypergraph.num_vertices(),
            "edges": hypergraph.num_edges(),
        }
        # alive -> (lo, hi), an interval proven to hold h, and alive ->
        # forced simplicial vertex: both depend only on the eliminated
        # set, never on the order it was eliminated in. A state the
        # bound cuts never fills ``forced``.
        self.bounds: dict[int, tuple[int, int]] = {}
        self.forced: dict[int, Vertex | None] = {}
        # The size profile of one remaining set: ``lower()`` for a child
        # and ``finish()`` when it is entered share it.
        self._profile_alive = -1
        self._profile: list[int] = []
        # The root incumbent's ordering, as indices, and its width on the
        # root graph, for ``lower()``; unset until ``root_bounds``.
        self._order: list[int] | None = None
        self._order_width = _UNBOUNDED

    def root_bounds(
        self, rng: random.Random | None
    ) -> tuple[int, int, list[Vertex]]:
        lb = tw_ksc_width_remaining(
            self.hypergraph, self.primal, tw_methods=self.lb_methods, rng=rng
        )
        ub, ordering = initial_ghw_incumbent(self.hypergraph, self.solver, rng)
        self._order = [self.working.index[v] for v in ordering]
        self._order_width = bit_ordering_width(self.bh, self._order)
        return lb, ub, ordering

    def reduce(self, low: int) -> Vertex | None:
        if not self.use_reductions:
            return None
        alive = self.working.alive
        try:
            return self.forced[alive]
        except KeyError:
            forced = self.forced[alive] = find_simplicial(self.working)
            return forced

    def bag_cost(
        self, child: Vertex, g: int | None = None, limit: int | None = None
    ) -> int:
        # Exact only inside the window (g, limit); without one, exact.
        working = self.working
        i = working.index[child]
        return len(self.solver.cover((1 << i) | working.masks[i], g, limit))

    def profile(self) -> list[int]:
        """The restricted edge sizes of the current remainder as a
        :func:`~repro.bounds.ghw_lower.remainder_profile`, kept for one
        ``alive`` mask at a time."""
        alive = self.working.alive
        if alive != self._profile_alive:
            self._profile = remainder_profile(self.bh, alive)
            self._profile_alive = alive
        return self._profile

    def lower(self, floor: int = 0, limit: int | None = None) -> int:
        # The memo answers when its interval settles the window: h is
        # known, already reaches the limit, or cannot pass the floor.
        # Its ``lo`` is an answer in every such case.
        if limit is None:
            limit = _UNBOUNDED
        alive = self.working.alive
        lo, hi = self.bounds.get(alive, _UNKNOWN)
        if lo == hi or lo >= limit or hi <= floor:
            return lo
        # Per-node bounds tie on repr (rng=None): only the root calls
        # consume ``rng``; the bitmask kernel reads the live masks. The
        # root ordering may settle ``h <= floor`` first, when the floor's
        # treewidth threshold ``profile[floor - 1] - 1`` is at least its
        # root width; below that it seldom does.
        profile = self.profile()
        ordering = None
        if 0 < floor <= len(profile) and profile[floor - 1] > self._order_width:
            ordering = self._order
        v = tw_ksc_width_remaining(
            self.bh, self.working, tw_methods=self.lb_methods, rng=None,
            profile=profile, floor=floor, limit=limit, ordering=ordering,
        )
        if v > lo:
            lo = v
        if max(floor, v) < limit:  # decided inside the window
            if v > floor:
                hi = v
            elif floor < hi:
                hi = floor
        self.bounds[alive] = (lo, hi)
        return lo

    def finish(self, g: int, below: int) -> int | None:
        # The greedy remainder cover runs only when it could reach g or
        # go below ``below``: greedy >= floor always.
        alive = self.working.alive
        floor = remainder_cover_floor(self.bh, alive, self.profile())
        if floor <= g or floor < below:
            return pr1_ghw(g, len(greedy_set_cover(alive, self.bh)))[0]
        return None

    def pr2(self, child: Vertex, grandchildren: list[Vertex]) -> list[Vertex]:
        return pr2_prune_children(
            self.working, child, grandchildren, swap_safe=swap_safe_ghw
        )


def branch_and_bound_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` (or bounds, if interrupted).

    ``control`` attaches the search to a portfolio bound bus exactly as
    in :func:`~repro.search.bb_tw.branch_and_bound_treewidth`: stop
    cooperatively, prune against the portfolio incumbent, publish bound
    improvements and best-so-far checkpoints.
    """
    return branch_and_bound(
        GhwMeasure(hypergraph, lb_methods, use_reductions),
        time_limit, node_limit, use_pr2, rng, control,
    )
