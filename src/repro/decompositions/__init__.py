"""Tree decompositions, GHDs and elimination-ordering machinery."""

from repro._lazy import lazy_exports
from repro.decompositions.elimination import (
    cliques_of_ordering,
    elimination_bags,
    ordering_ghw,
    ordering_to_ghd,
    ordering_to_tree_decomposition,
    ordering_width,
)
from repro.decompositions.ghd import (
    GeneralizedHypertreeDecomposition,
    exact_cover_width,
    make_complete,
)
from repro.decompositions.tree_decomposition import (
    DecompositionError,
    TreeDecomposition,
    trivial_decomposition,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "hypertree": ("HypertreeDecomposition", "det_k_decomp", "hypertree_width"),
    "io": (
        "read_ghd",
        "read_tree_decomposition",
        "write_ghd",
        "write_tree_decomposition",
    ),
    "leaf_normal_form": (
        "extract_ordering",
        "ordering_from_leaf_normal_form",
        "transform_leaf_normal_form",
    ),
})

__all__ = [
    "DecompositionError",
    "GeneralizedHypertreeDecomposition",
    "HypertreeDecomposition",
    "TreeDecomposition",
    "cliques_of_ordering",
    "det_k_decomp",
    "elimination_bags",
    "exact_cover_width",
    "extract_ordering",
    "hypertree_width",
    "make_complete",
    "ordering_from_leaf_normal_form",
    "ordering_ghw",
    "ordering_to_ghd",
    "ordering_to_tree_decomposition",
    "ordering_width",
    "read_ghd",
    "read_tree_decomposition",
    "write_ghd",
    "write_tree_decomposition",
    "transform_leaf_normal_form",
    "trivial_decomposition",
]
