"""Cooperative solver control: stop signals, shared bounds, checkpoints.

A :class:`SolverControl` is the solver-facing half of the portfolio's
bound bus (:mod:`repro.portfolio.bus`). Every solver loop in the library
holds a ``control`` (the inert base class unless one is passed) and

* polls :meth:`SolverControl.should_stop` before each unit of work (a
  generation, a move, a search node) and winds down gracefully
  (flushing its best-so-far result) when it fires,
* reads :meth:`shared_upper_bound` / :meth:`shared_lower_bound` — the
  portfolio-wide incumbent — and prunes or early-stops against them,
* reports its own improvements through :meth:`publish_upper` /
  :meth:`publish_lower`, and
* offers periodic :meth:`checkpoint` payloads (RNG state plus whatever
  population/ordering snapshot the solver needs to resume).

The base class is deliberately inert: every method is a no-op that
reports "keep going", so solvers can hold a control unconditionally.
:class:`LocalControl` is a plain in-process implementation for tests and
callers that drive a solver by hand. The portfolio's own clients, the
inline scheduler's :class:`~repro.portfolio.bus.InlineClient` and the
process-mode :class:`~repro.portfolio.bus.BusClient`, live with the bus,
which owns the shared state.

This lives in :mod:`repro.obs` next to :class:`~repro.obs.budget.Budget`
for the same reason the budget does: it is cross-cutting runtime plumbing
that every solver family shares, with no solver-specific imports, so
solvers can depend on it without cycles.
"""

from __future__ import annotations

from collections.abc import Sequence


class SolverControl:
    """No-op control: never stops, shares nothing, records nothing."""

    def should_stop(self) -> bool:
        """``True`` when the solver should wind down and return."""
        return False

    def shared_upper_bound(self) -> int | None:
        """The portfolio-wide incumbent upper bound, if any."""
        return None

    def shared_lower_bound(self) -> int | None:
        """The portfolio-wide proven lower bound, if any."""
        return None

    def publish_upper(self, value: int, ordering: Sequence | None = None) -> None:
        """Report an improved upper bound (with its witness ordering)."""

    def publish_lower(self, value: int) -> None:
        """Report an improved proven lower bound."""

    def checkpoint(self, state: dict) -> None:
        """Offer a resume snapshot; implementations throttle and persist."""


def records_checkpoints(control: SolverControl) -> bool:
    """Whether ``control`` does anything with :meth:`~SolverControl.checkpoint`
    payloads: a solver builds them only then, so the inert control costs
    its loop nothing."""
    return type(control).checkpoint is not SolverControl.checkpoint


class LocalControl(SolverControl):
    """In-process control backed by plain attributes.

    For tests and hand-driven runs: ``stop`` is a flag the owner flips,
    ``upper_bound`` / ``lower_bound`` are injected shared bounds, and
    published bounds and checkpoints are recorded on the instance.
    Publishing keeps only improvements, so ``best_upper``/``best_lower``
    are monotone.
    """

    def __init__(
        self,
        upper_bound: int | None = None,
        lower_bound: int | None = None,
        stop_after_publishes: int | None = None,
    ) -> None:
        self.stop = False
        self.upper_bound = upper_bound
        self.lower_bound = lower_bound
        self.best_upper: int | None = None
        self.best_ordering: list | None = None
        self.best_lower: int | None = None
        self.checkpoints: list[dict] = []
        self.publishes = 0
        self._stop_after_publishes = stop_after_publishes

    def should_stop(self) -> bool:
        return self.stop

    def shared_upper_bound(self) -> int | None:
        return self.upper_bound

    def shared_lower_bound(self) -> int | None:
        return self.lower_bound

    def publish_upper(self, value: int, ordering: Sequence | None = None) -> None:
        self.publishes += 1
        if self.best_upper is None or value < self.best_upper:
            self.best_upper = value
            self.best_ordering = list(ordering) if ordering is not None else None
        if (
            self._stop_after_publishes is not None
            and self.publishes >= self._stop_after_publishes
        ):
            self.stop = True

    def publish_lower(self, value: int) -> None:
        self.publishes += 1
        if self.best_lower is None or value > self.best_lower:
            self.best_lower = value

    def checkpoint(self, state: dict) -> None:
        self.checkpoints.append(state)
