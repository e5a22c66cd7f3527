"""Outside-in layer tracer for the benchmark.

Every public function a layer exposes is wrapped *at the name its caller
binds*: ``from repro.bounds.lower import treewidth_lower_bound`` copies
the function into ``repro.search.bb_tw``, so patching
``repro.bounds.lower`` would wrap nothing the search calls. Modules are
always fetched with :func:`importlib.import_module`, which returns the
module object from ``sys.modules``; ``import repro.search.astar_ghw as m``
would return the same-named *function* the ``repro.search`` package
re-exports, and patching that wraps nothing either.

Each wrapper is a span: it adds its wall time to the enclosing span's
child total, so a site's *self* time is its span time minus the time its
child spans cover. Spans are aggregated as they close (calls and self
seconds per site); nothing per call is kept in memory.

A missing wrap target fails loudly (:class:`TraceSetupError`), and so
does a layer that records no calls on the workload that must exercise
it — a refactor that moves a call site cannot silently empty a layer.
"""

from __future__ import annotations

import importlib
import types
from time import perf_counter

#: (site, module, attribute path) — one entry per caller binding. A site
#: is ``layer`` or ``layer.part``; the part splits a layer's time where
#: the benchmark reports it separately (lower vs upper bounds, exact vs
#: greedy covers).
WRAP_TARGETS: tuple[tuple[str, str, str], ...] = (
    # per-node lower bounds, called by the four exact searches
    ("bounds.lower", "repro.search.astar_tw", "treewidth_lower_bound"),
    ("bounds.lower", "repro.search.bb_tw", "treewidth_lower_bound"),
    ("bounds.lower", "repro.search.bb_ghw", "tw_ksc_width_remaining"),
    ("bounds.lower", "repro.search.astar_ghw", "tw_ksc_width_remaining"),
    # root incumbents (min-fill / min-degree orderings)
    ("bounds.upper", "repro.search.astar_tw", "upper_bound_ordering"),
    ("bounds.upper", "repro.search.bb_tw", "upper_bound_ordering"),
    ("bounds.upper", "repro.search.bb_ghw", "initial_ghw_incumbent"),
    ("bounds.upper", "repro.search.astar_ghw", "initial_ghw_incumbent"),
    # simplicial forcing and pruning rule 2
    ("reductions", "repro.search.astar_tw", "find_reduction_vertex"),
    ("reductions", "repro.search.bb_tw", "find_reduction_vertex"),
    ("reductions", "repro.search.bb_ghw", "find_simplicial"),
    ("reductions", "repro.search.astar_ghw", "find_simplicial"),
    ("reductions", "repro.search.astar_tw", "pr2_prune_children"),
    ("reductions", "repro.search.bb_tw", "pr2_prune_children"),
    ("reductions", "repro.search.bb_ghw", "pr2_prune_children"),
    ("reductions", "repro.search.astar_ghw", "pr2_prune_children"),
    # the elimination graph with undo, and hyperedge restriction
    ("hypergraphs", "repro.hypergraphs.elimination_graph", "EliminationGraph.eliminate"),
    ("hypergraphs", "repro.hypergraphs.elimination_graph", "EliminationGraph.restore"),
    ("hypergraphs", "repro.hypergraphs.elimination_graph", "EliminationGraph.switch_to"),
    ("hypergraphs", "repro.hypergraphs.hypergraph", "Hypergraph.restrict"),
    # exact covers (memoised in the process-wide cover cache)
    ("setcover.exact", "repro.setcover.exact", "ExactSetCoverSolver.cover"),
    # greedy covers, at every module that calls them
    ("setcover.greedy", "repro.genetic.ga_ghw", "greedy_set_cover"),
    ("setcover.greedy", "repro.search.bb_ghw", "greedy_set_cover"),
    ("setcover.greedy", "repro.search.astar_ghw", "greedy_set_cover"),
    ("setcover.greedy", "repro.setcover.exact", "greedy_set_cover"),
    ("setcover.greedy", "repro.decompositions.elimination", "greedy_set_cover"),
    # bitset kernels: evaluator closures and the lazy imports of
    # repro.decompositions.elimination read these bindings
    ("kernels", "repro.kernels.evaluators", "bit_ordering_width"),
    ("kernels", "repro.kernels.evaluators", "bit_ordering_ghw"),
    ("kernels", "repro.kernels.elimination", "bit_ordering_width"),
    ("kernels", "repro.kernels.elimination", "bit_ordering_ghw"),
    # ordering -> bags / width (GA fitness on the default path)
    ("decompositions", "repro.genetic.ga_ghw", "elimination_bags"),
    ("decompositions", "repro.decompositions.elimination", "elimination_bags"),
    ("decompositions", "repro.decompositions.elimination", "ordering_width"),
)

#: The layers reported, each with the sites it sums. ``search`` and
#: ``genetic`` are root spans the worker puts around the entry points it
#: calls; their self time is the search or GA loop's own time left after
#: every wrapped child layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "bounds": ("bounds.lower", "bounds.upper"),
    "reductions": ("reductions",),
    "hypergraphs": ("hypergraphs",),
    "search": ("search",),
    "setcover": ("setcover.exact", "setcover.greedy"),
    "kernels": ("kernels",),
    "decompositions": ("decompositions",),
    "genetic": ("genetic",),
}

#: Sites that must record calls on a workload's traced pass.
REQUIRED_SITES: dict[str, tuple[str, ...]] = {
    "tw-exact": ("bounds.lower",),
    "ghw-exact": ("setcover.exact",),
    "ghw-heuristic": ("setcover.greedy",),
}


class TraceSetupError(RuntimeError):
    """A wrap target is missing, or a required layer recorded nothing."""


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    module = importlib.import_module(module_name)
    if not isinstance(module, types.ModuleType):
        raise TraceSetupError(f"{module_name} did not resolve to a module")
    owner: object = module
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceSetupError(f"wrap target {module_name}.{path} is missing")
    if not callable(getattr(owner, attribute, None)):
        raise TraceSetupError(f"wrap target {module_name}.{path} is missing")
    return owner, attribute


class LayerTracer:
    """Span-per-call timing of wrapped functions, aggregated per site."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._children: list[float] = []

    def wrap(self, site: str, function):
        """``function`` with a span around each call while enabled."""
        self.calls.setdefault(site, 0)
        self.self_s.setdefault(site, 0.0)
        children = self._children

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[site] += elapsed - children.pop()
                self.calls[site] += 1
                if children:
                    children[-1] += elapsed

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", site)
        return traced

    def install(self) -> None:
        """Wrap every entry of :data:`WRAP_TARGETS` in this process."""
        for site, module_name, path in WRAP_TARGETS:
            owner, attribute = _resolve(module_name, path)
            setattr(owner, attribute, self.wrap(site, getattr(owner, attribute)))

    def check_required(self, workload: str) -> None:
        """Fail when a site the workload must exercise saw no calls."""
        for site in REQUIRED_SITES.get(workload, ()):
            if self.calls.get(site, 0) == 0:
                raise TraceSetupError(
                    f"layer site {site!r} recorded no calls on {workload}; "
                    "a call site moved — update perfbench/layers.py"
                )

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            site: {"calls": self.calls[site], "self_s": self.self_s[site]}
            for site in self.calls
        }
