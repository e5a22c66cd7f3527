"""A*-tw: best-first exact treewidth (Chapter 5, Figure 5.1).

The branch-and-bound tree over elimination prefixes is searched best-first
with evaluation ``f(n) = max(g(n), h(n), f(parent))`` where ``g`` is the
width of the prefix and ``h`` an admissible treewidth lower bound on the
remaining graph (max of minor-min-width and minor-gamma_R, Section 4.4.2).
Among equal ``f`` the deeper state is preferred, so goals surface early
once the frontier reaches the treewidth level (Section 5.3).

Search-space shrinking follows the thesis: a state whose ``f`` reaches
``ub`` is never expanded; a simplicial or strongly almost simplicial
vertex forces an only child; pruning rule 2 removes swap-redundant
siblings (skipped when the parent's children were forced).

Children are evaluated lazily (Dow & Korf, "Best-First Search for
Treewidth", 2007): an expansion pushes each child with key
``max(g, f(parent))``, and the elimination, ``h``, forcing and PR2 run
only when that entry is popped, the last two only if ``h`` does not cut
it. It is then re-pushed if ``h`` raised its ``f``, dropped if its ``f``
reaches ``ub``, and expanded otherwise, in the order eager evaluation
would expand it.

On top of that, duplicate detection (Dow & Korf, "Best-First Search for
Treewidth", 2007): the graph left after a prefix depends only on *which*
vertices it eliminated, so states are keyed on ``EliminationGraph.alive``
and a child whose set was already reached at no higher ``g`` is dropped.
Heap entries made stale by a later, cheaper path to their set are skipped
on pop without charging the node budget. DESIGN.md gives the soundness
argument alongside pruning rule 2 and forcing.

Because popped keys never decrease, the ``f`` of the last expanded
state is an anytime treewidth *lower bound* — interrupting A*-tw yields
``[last f, ub]`` (Section 5.3), which Table 5.1 reports for the instances
the thesis could not finish.

The search itself is :func:`repro.search.driver.astar` over the
treewidth measure of :mod:`repro.search.bb_tw`.
"""

from __future__ import annotations

import random

# The benchmark's layer tracer wraps these bindings; the calls go through bb_tw's.
from repro.bounds.lower import treewidth_lower_bound  # noqa: F401
from repro.bounds.upper import upper_bound_ordering  # noqa: F401
from repro.hypergraphs.graph import Graph
from repro.obs.control import SolverControl
from repro.reductions.pruning import pr2_prune_children  # noqa: F401
from repro.reductions.simplicial import find_reduction_vertex  # noqa: F401
from repro.search.bb_tw import TreewidthMeasure
from repro.search.common import SearchResult
from repro.search.driver import astar


def astar_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = SolverControl(),
) -> SearchResult:
    """Compute the treewidth of ``graph`` via best-first search.

    Returns a certified :class:`SearchResult` or, when the budget runs
    out, bounds with ``lower_bound`` taken from the A* frontier.

    ``control`` attaches the search to a portfolio bound bus: states are
    additionally pruned against the portfolio incumbent upper bound, the
    anytime frontier lower bound is published as it rises, and the search
    stops cooperatively. Once external pruning has occurred, frontier
    ``f`` values above the external bound no longer prove a lower bound,
    so the published/returned lower bound is capped at the smallest
    external bound ever pruned against.
    """
    return astar(
        TreewidthMeasure(graph, lb_methods, use_reductions),
        time_limit, node_limit, use_pr2, rng, control,
    )
