"""Branch and bound for exact treewidth (the Section 4.4 baseline).

This is the QuickBB/BB-tw-style algorithm the thesis reviews and compares
against: depth-first search over elimination-ordering prefixes with

* an initial incumbent from the min-fill heuristic,
* per-node lower bounds ``f = max(g, h)`` with ``h`` a minor-based
  treewidth lower bound on the remaining graph,
* pruning rule 1 (finish-now certificates, Section 4.4.5),
* pruning rule 2 (swap-redundant sibling elimination),
* simplicial / strongly almost simplicial forcing (Section 4.4.3),
* a transposition table on the set of remaining vertices: the graph left
  after a prefix depends only on which vertices it eliminated, so a child
  whose set was already exhausted at no higher ``g`` is skipped (sound
  because the pruning threshold only tightens; DESIGN.md has the
  argument alongside pruning rule 2 and forcing).

The search itself is :func:`repro.search.driver.branch_and_bound`; this
module supplies the treewidth :class:`~repro.search.driver.Measure`,
which A*-tw shares. The search walks a single :class:`EliminationGraph`
with undo, so moving between search nodes costs only the differing
suffix.
"""

from __future__ import annotations

import random

from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr1_treewidth, pr2_prune_children, swap_safe_treewidth
from repro.reductions.simplicial import find_reduction_vertex
from repro.search.common import SearchResult
from repro.search.driver import branch_and_bound


class TreewidthMeasure:
    """Treewidth: a bag costs the degree of the vertex eliminated.

    Every bound, reduction and PR2 call goes through this module's
    bindings, the names the benchmark's layer tracer wraps.
    """

    kind = "tw"
    dedup = True

    def __init__(
        self,
        graph: Graph,
        lb_methods: tuple[str, ...],
        use_reductions: bool,
    ) -> None:
        self.graph = graph
        self.working = EliminationGraph(graph)
        self.lb_methods = lb_methods
        self.use_reductions = use_reductions
        self.span_attrs = {"vertices": graph.num_vertices()}

    def root_bounds(
        self, rng: random.Random | None
    ) -> tuple[int, int, list[Vertex]]:
        lb = treewidth_lower_bound(self.graph, methods=self.lb_methods, rng=rng)
        return (lb, *upper_bound_ordering(self.graph, "min-fill", rng))

    def reduce(self, low: int) -> Vertex | None:
        if not self.use_reductions:
            return None
        return find_reduction_vertex(self.working, low)

    def bag_cost(
        self, child: Vertex, g: int | None = None, limit: int | None = None
    ) -> int:
        # Degrees are exact at no extra cost: the window is ignored.
        return self.working.degree(child)

    def lower(self, floor: int = 0, limit: int | None = None) -> int:
        # Per-node bounds tie on repr (rng=None): only the root calls
        # consume ``rng``; the bitmask kernel reads the live masks and
        # stops once the window decides the answer.
        return treewidth_lower_bound(
            self.working, methods=self.lb_methods, rng=None,
            floor=floor, limit=limit,
        )

    def finish(self, g: int, below: int) -> int:
        return pr1_treewidth(g, self.working.num_vertices())[0]

    def pr2(self, child: Vertex, grandchildren: list[Vertex]) -> list[Vertex]:
        return pr2_prune_children(
            self.working, child, grandchildren, swap_safe=swap_safe_treewidth
        )


def branch_and_bound_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Compute the treewidth of ``graph`` (or bounds, if interrupted).

    ``control`` attaches the search to a portfolio bound bus: the search
    stops cooperatively when the control says so, prunes against the
    portfolio-wide incumbent upper bound, publishes its own incumbent and
    proven lower bounds, and offers best-so-far checkpoints. When the
    search exhausts while pruning against an external bound below its own
    incumbent, the result is an ``interrupted`` bracket whose lower bound
    equals that external bound — the matching witness lives elsewhere on
    the bus, so the portfolio (not this worker) certifies optimality.
    """
    return branch_and_bound(
        TreewidthMeasure(graph, lb_methods, use_reductions),
        time_limit, node_limit, use_pr2, rng, control,
    )
