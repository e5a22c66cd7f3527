"""Bayesian networks: moral graphs and junction trees (Section 4.5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "network": (
        "BayesianNetwork",
        "CycleError",
        "JunctionTree",
        "chain_network",
        "junction_tree",
        "naive_bayes_network",
        "sprinkler_network",
    ),
})

__all__ = [
    "BayesianNetwork",
    "CycleError",
    "JunctionTree",
    "chain_network",
    "junction_tree",
    "naive_bayes_network",
    "sprinkler_network",
]
