"""Genetic algorithms: GA-tw, GA-ghw, SAIGA-ghw and their operators."""

from repro._lazy import lazy_exports
from repro.genetic.crossover import CROSSOVER_OPERATORS, get_crossover
from repro.genetic.engine import GAParameters, GAResult, run_ga
from repro.genetic.ga_ghw import ga_ghw  # also a submodule's name
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.mutation import MUTATION_OPERATORS, get_mutation
from repro.genetic.selection import best_individual, tournament_selection

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "saiga": ("ParameterVector", "SAIGAResult", "saiga_ghw"),
    "weighted": ("ga_weighted_triangulation", "triangulation_weight"),
})

__all__ = [
    "CROSSOVER_OPERATORS",
    "GAParameters",
    "GAResult",
    "MUTATION_OPERATORS",
    "ParameterVector",
    "SAIGAResult",
    "best_individual",
    "ga_ghw",
    "ga_treewidth",
    "ga_weighted_triangulation",
    "triangulation_weight",
    "get_crossover",
    "get_mutation",
    "run_ga",
    "saiga_ghw",
    "tournament_selection",
]
