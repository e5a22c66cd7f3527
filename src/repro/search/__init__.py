"""Exact width algorithms: A*-tw, BB-tw, BB-ghw, A*-ghw."""

from repro.search.astar_ghw import astar_ghw  # also a submodule's name
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.search.common import SearchBudget, SearchResult

__all__ = [
    "SearchBudget",
    "SearchResult",
    "astar_ghw",
    "astar_treewidth",
    "branch_and_bound_ghw",
    "branch_and_bound_treewidth",
]
