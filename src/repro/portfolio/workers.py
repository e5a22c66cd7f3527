"""Running one portfolio strategy — shared by both scheduler modes.

:func:`run_strategy` is the single dispatch point from a
:class:`~repro.portfolio.strategies.StrategySpec` to the solver table
(:data:`repro.core.solvers.SOLVERS`), normalising the entries'
heterogeneous results (SearchResult, GAResult, AnnealingResult,
TabuResult, OrderingResult) into one
:class:`~repro.portfolio.results.WorkerResult`.

:func:`worker_main` is the entry point of a worker *process*: it wires
the strategy to the bound bus, runs under its own ``repro.obs``
instrumentation, and — crucially — always flushes a final message
(result + RunReport + last checkpoint) before exiting, including on
SIGTERM-driven cancellation: the signal handler only sets the shared
stop event, the solver winds down cooperatively, and the normal
reporting path runs.
"""

from __future__ import annotations

import signal
import time

from repro import obs
from repro.core.solvers import lookup
from repro.core.widths import WIDTHS
from repro.obs.control import SolverControl
from repro.obs.report import RunReport
from repro.portfolio.bus import BoundMessage, BusClient
from repro.portfolio.checkpoint import Checkpointer
from repro.portfolio.results import WorkerResult
from repro.portfolio.strategies import StrategySpec


def run_strategy(
    spec: StrategySpec,
    instance,
    measure: str,
    time_limit: float | None = None,
    control: SolverControl | None = SolverControl(),
    resume_state: dict | None = None,
) -> WorkerResult:
    """Run one strategy to completion (or cooperative stop).

    The solver is the ``(spec.kind, measure)`` row of
    :data:`~repro.core.solvers.SOLVERS`; it runs on the instance the
    measure's :data:`~repro.core.widths.WIDTHS` row prepares. The exact
    searches cannot resume mid-tree, so for them ``resume_state`` is
    ignored here — the scheduler instead seeds the shared incumbent from
    the checkpoint, which the restarted search prunes against from its
    first node.
    """
    solver = lookup(spec.kind, measure)
    result = solver.run(
        WIDTHS[measure].prepare(instance),
        seed=spec.seed,
        time_limit=time_limit,
        jobs=spec.jobs,
        options=spec.options,
        control=control,
        resume_state=resume_state,
    )
    detail = {key: getattr(result, name) for key, name in solver.detail}
    if solver.exact:
        return WorkerResult(
            name=spec.name,
            kind=spec.kind,
            status="optimal" if result.optimal else "interrupted",
            lower_bound=result.lower_bound,
            upper_bound=result.upper_bound,
            ordering=list(result.ordering),
            elapsed=result.elapsed,
            detail=detail,
        )
    return WorkerResult(
        name=spec.name,
        kind=spec.kind,
        status="heuristic",
        lower_bound=None,
        upper_bound=result.best_fitness,
        ordering=list(result.best_individual),
        elapsed=result.elapsed,
        detail={"evaluations": result.evaluations, **detail},
    )


def capture_worker_report(
    ins,
    spec: StrategySpec,
    result: WorkerResult,
    instance_name: str,
    measure: str,
) -> RunReport:
    """One nested RunReport for a finished worker."""
    status = result.status if result.status != "stopped" else "heuristic"
    return RunReport.capture(
        ins,
        instance=instance_name,
        solver=spec.name,
        measure=measure,
        status=status,
        value=result.upper_bound if result.status == "optimal" else None,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        elapsed_s=result.elapsed,
        meta={
            "kind": spec.kind,
            "seed": spec.seed,
            "jobs": spec.jobs,
        },
    )


def worker_main(
    spec_dict: dict,
    instance,
    instance_name: str,
    measure: str,
    time_limit: float | None,
    queue,
    stop_event,
    shared_upper,
    shared_lower,
    checkpoint_dir: str | None,
    checkpoint_interval: float,
    resume_state: dict | None,
) -> None:
    """Worker-process entry point (fork start method).

    SIGTERM is rerouted to the shared stop event, so an external
    cancellation takes the same graceful path as a scheduler stop: the
    solver loop notices ``should_stop()``, winds down, and the final
    result/report/checkpoint flush below still runs.
    """
    spec = StrategySpec.from_dict(spec_dict)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop_event.set())
    checkpointer = (
        Checkpointer(checkpoint_dir, spec.name, interval_s=checkpoint_interval)
        if checkpoint_dir
        else None
    )
    control = BusClient(
        spec.name, queue, stop_event, shared_upper, shared_lower, checkpointer
    )
    started = time.monotonic()
    with obs.instrument() as ins:
        with ins.tracer.span("worker", worker=spec.name, kind=spec.kind):
            try:
                result = run_strategy(
                    spec,
                    instance,
                    measure,
                    time_limit=time_limit,
                    control=control,
                    resume_state=resume_state,
                )
            except Exception as error:  # report, don't crash the race
                result = WorkerResult(
                    name=spec.name,
                    kind=spec.kind,
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                )
        if not result.elapsed:
            result.elapsed = time.monotonic() - started
        report = capture_worker_report(ins, spec, result, instance_name, measure)
    if checkpointer is not None:
        checkpointer.flush()
    queue.put(
        BoundMessage(
            type="result",
            worker=spec.name,
            payload={"result": result.to_dict(), "report": report.to_dict()},
        )
    )
    queue.close()
    queue.join_thread()
