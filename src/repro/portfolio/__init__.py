"""Anytime solver portfolio: race strategies, share bounds, stop early.

The portfolio runs several configured solver strategies on one instance
concurrently (worker processes) or sequentially time-sliced (inline).
Workers publish improved upper bounds — with witness orderings — and
proven lower bounds onto a bound bus; the scheduler folds them into a
portfolio-wide incumbent, which exact searches prune against, and halts
the whole race as soon as the bounds meet. Races checkpoint themselves
and can be resumed after a kill.

Entry points: :func:`run_portfolio` / :func:`resume_portfolio`, or the
``repro portfolio`` CLI subcommand.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "bus": ("BoundMessage", "BusClient", "Incumbent", "InlineClient"),
    "checkpoint": (
        "Checkpointer",
        "list_worker_states",
        "load_worker_state",
        "read_manifest",
        "write_manifest",
    ),
    "results": ("PortfolioResult", "WorkerResult"),
    "scheduler": (
        "PortfolioSpec",
        "portfolio_report",
        "resume_portfolio",
        "run_portfolio",
    ),
    "strategies": ("StrategySpec", "default_portfolio", "parse_strategies"),
    "workers": ("run_strategy",),
})

__all__ = [
    "BoundMessage",
    "BusClient",
    "Checkpointer",
    "Incumbent",
    "InlineClient",
    "PortfolioResult",
    "PortfolioSpec",
    "StrategySpec",
    "WorkerResult",
    "default_portfolio",
    "list_worker_states",
    "load_worker_state",
    "parse_strategies",
    "portfolio_report",
    "read_manifest",
    "resume_portfolio",
    "run_portfolio",
    "run_strategy",
    "write_manifest",
]
