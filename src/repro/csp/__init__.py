"""Constraint satisfaction: problems, relations, acyclic + decomposition solving."""

from repro._lazy import lazy_exports
from repro.csp.adaptive_consistency import adaptive_consistency  # also a submodule's name

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "acyclic": (
        "NotAcyclicError",
        "acyclic_solve",
        "gyo_join_tree",
        "is_acyclic",
        "solve_relation_tree",
    ),
    "backtracking": ("backtracking_solve", "count_solutions", "iterate_solutions"),
    "builders": (
        "acyclic_chain_csp",
        "australia_map_coloring",
        "example_5_csp",
        "graph_coloring_csp",
        "n_queens_csp",
        "random_binary_csp",
        "sat_csp",
    ),
    "enumerate": (
        "count_solutions_with_ghd",
        "enumerate_with_ghd",
        "enumerate_with_tree_decomposition",
    ),
    "problem": ("CSP", "Constraint", "make_csp"),
    "relations": ("Relation", "join_all"),
    "solve": ("solve_with_ghd", "solve_with_tree_decomposition"),
})

__all__ = [
    "CSP",
    "adaptive_consistency",
    "Constraint",
    "NotAcyclicError",
    "Relation",
    "acyclic_chain_csp",
    "acyclic_solve",
    "australia_map_coloring",
    "backtracking_solve",
    "count_solutions",
    "count_solutions_with_ghd",
    "enumerate_with_ghd",
    "enumerate_with_tree_decomposition",
    "example_5_csp",
    "graph_coloring_csp",
    "gyo_join_tree",
    "is_acyclic",
    "iterate_solutions",
    "join_all",
    "make_csp",
    "n_queens_csp",
    "random_binary_csp",
    "sat_csp",
    "solve_relation_tree",
    "solve_with_ghd",
    "solve_with_tree_decomposition",
]
