"""The anytime shell around GA, SAIGA, simulated annealing and tabu search.

Each upper-bound heuristic is a loop that improves a best-so-far
ordering step by step (a generation, an epoch, a temperature level, a
tabu move) and may be stopped after any step with a valid bound. What
surrounds that loop is the same for all four and lives here once:

* the wall-clock :class:`~repro.obs.budget.Budget`;
* the stop test at the loop head: the best fitness reached ``target``,
  the budget ran out, the control asked the run to stop, or the best
  fitness reached the portfolio-wide proven lower bound;
* restoring the ``rng`` from a resume snapshot;
* publishing each improvement to the control, and offering a resume
  snapshot (with the ``rng`` state) after each step;
* the final ``best_fitness`` gauge and the metrics snapshot.

Each loop keeps its own state, counters and snapshot keys, so
checkpoints written before this shell existed still resume.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro import obs
from repro.obs.budget import Budget
from repro.obs.control import SolverControl, records_checkpoints


class AnytimeLoop:
    """Budget, stop test, resume, publication and checkpoints of one run.

    ``control`` may be ``None``, which means the inert
    :class:`~repro.obs.control.SolverControl`. ``resume_state`` is a
    snapshot previously offered through :meth:`checkpoint` (with
    ``rng_state`` decoded to a :class:`random.Random` state tuple); the
    shell restores the ``rng`` from it, the loop restores the rest.
    """

    def __init__(
        self,
        solver: str,
        rng: random.Random,
        time_limit: float | None = None,
        target: int | None = None,
        control: SolverControl | None = None,
        resume_state: dict | None = None,
    ) -> None:
        self.solver = solver
        self.rng = rng
        self.budget = Budget(time_limit=time_limit)
        self.target = target
        self.control = control or SolverControl()
        self.metrics = obs.current().metrics
        # Snapshots copy the loop's whole state: build them only for a
        # control that records them.
        self._records = records_checkpoints(self.control)
        if resume_state is not None and resume_state.get("rng_state") is not None:
            rng.setstate(resume_state["rng_state"])

    def stopped(self, best: int) -> bool:
        """Whether the loop should stop before its next step."""
        if self.target is not None and best <= self.target:
            return True
        if self.budget.exhausted() or self.control.should_stop():
            return True
        shared_lb = self.control.shared_lower_bound()
        return shared_lb is not None and best <= shared_lb

    def publish(self, best: int, ordering: Sequence) -> None:
        """Report a new best-so-far fitness with its witness ordering."""
        self.control.publish_upper(best, ordering)

    def checkpoint(self, snapshot: Callable[[], dict]) -> None:
        """Offer ``snapshot()`` plus the ``rng`` state as a resume point."""
        if self._records:
            self.control.checkpoint(
                {**snapshot(), "rng_state": self.rng.getstate()}
            )

    def finish(self, best: int) -> dict:
        """Set the ``best_fitness`` gauge; the metrics snapshot (empty
        when uninstrumented)."""
        if not self.metrics.enabled:
            return {}
        self.metrics.gauge("best_fitness", solver=self.solver).set(best)
        return self.metrics.snapshot()
