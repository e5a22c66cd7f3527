"""Programmable thesis-style experiments (instances x algorithms)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "runner": ("ExperimentSpec", "ExperimentTable", "run_experiment"),
})

__all__ = ["ExperimentSpec", "ExperimentTable", "run_experiment"]
