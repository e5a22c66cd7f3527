"""Set cover: greedy heuristic, exact solver, k-set-cover lower bounds."""

from repro._lazy import lazy_exports
from repro.setcover.exact import ExactSetCoverSolver, exact_set_cover
from repro.setcover.greedy import UncoverableError, greedy_set_cover
from repro.setcover.lower_bounds import (
    k_set_cover_lower_bound,
    size_profile_lower_bound,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "fractional": ("fractional_cover_value", "ordering_fractional_width"),
})

__all__ = [
    "ExactSetCoverSolver",
    "UncoverableError",
    "exact_set_cover",
    "fractional_cover_value",
    "ordering_fractional_width",
    "greedy_set_cover",
    "k_set_cover_lower_bound",
    "size_profile_lower_bound",
]
