"""Local-search baselines: simulated annealing and tabu search.

These are the competitors the thesis's GA chapters measure against
(Section 4.5 for simulated annealing; the Table 6.6 best-known bounds
include Clautiaux et al.'s tabu search). All three heuristics share the
ordering representation and fitness functions, so their results compare
one-to-one.
"""

from repro._lazy import lazy_exports
from repro.localsearch.simulated_annealing import (  # also a submodule's name
    AnnealingParameters,
    AnnealingResult,
    sa_ghw,
    sa_treewidth,
    simulated_annealing,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "tabu": (
        "TabuParameters",
        "TabuResult",
        "tabu_ghw",
        "tabu_search",
        "tabu_treewidth",
    ),
})

__all__ = [
    "AnnealingParameters",
    "AnnealingResult",
    "TabuParameters",
    "TabuResult",
    "sa_ghw",
    "sa_treewidth",
    "simulated_annealing",
    "tabu_ghw",
    "tabu_search",
    "tabu_treewidth",
]
