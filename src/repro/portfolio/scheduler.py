"""The racing scheduler: run N strategies on one instance, share bounds.

Two execution modes behind one result type:

* ``process`` (default) — one worker process per strategy (fork start
  method), connected by the bound bus of :mod:`repro.portfolio.bus`. The
  scheduler polls the message queue, folds published bounds into the
  incumbent, and signals the shared stop event as soon as the bounds
  close (``lb >= ub``) or the deadline passes. Workers wind down
  cooperatively (their SIGTERM handler routes into the same stop event)
  and flush a final result; stragglers are terminated after a grace
  period.

* ``inline`` — the same race run sequentially in-process, each strategy
  getting an equal slice of the remaining budget (heuristics first so
  the exact searches start with a tight incumbent to prune against).
  Deterministic, and what tests and the experiment runner use.

Checkpoint/resume: with a ``checkpoint_dir``, the race writes a manifest
(measure + strategy specs) and every worker persists throttled resume
snapshots. :func:`resume_portfolio` reconstructs the race from the
directory alone: the incumbent is seeded from the snapshots' best-so-far
bounds *before* any worker restarts — so a resumed race can only match
or improve the killed race's incumbent — and resumable solvers (GA,
SAIGA, SA, tabu) continue from their saved population/walk state.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.widths import lookup_width
from repro.obs.report import RunReport
from repro.portfolio.bus import (
    LB_SENTINEL,
    UB_SENTINEL,
    BoundMessage,
    Incumbent,
    InlineClient,
)
from repro.portfolio.checkpoint import (
    Checkpointer,
    list_worker_states,
    read_manifest,
    revive_vertices,
    write_manifest,
)
from repro.portfolio.results import PortfolioResult, WorkerResult
from repro.portfolio.strategies import StrategySpec, default_portfolio
from repro.portfolio.workers import (
    capture_worker_report,
    run_strategy,
    worker_main,
)

MODES = ("inline", "process")


@dataclass
class PortfolioSpec:
    """Configuration of one race."""

    measure: str = "tw"
    strategies: list[StrategySpec] = field(default_factory=list)
    """Empty means :func:`default_portfolio` for the measure."""

    time_limit: float | None = None
    mode: str = "process"
    seed: int = 0
    instance_name: str = "instance"
    checkpoint_dir: str | None = None
    checkpoint_interval: float = 1.0
    poll_interval: float = 0.02
    grace: float = 2.0
    """Seconds to wait for workers to wind down after the stop signal
    before escalating to SIGTERM (and, one grace later, SIGKILL)."""

    def validated(self) -> "PortfolioSpec":
        lookup_width(self.measure)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {list(MODES)}")
        if not self.strategies:
            self.strategies = default_portfolio(self.measure, seed=self.seed)
        names = [spec.name for spec in self.strategies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategy names: {names}")
        for spec in self.strategies:
            spec.validated(self.measure)
        return self


def run_portfolio(
    instance, spec: PortfolioSpec, resume: bool = False
) -> PortfolioResult:
    """Race ``spec.strategies`` on ``instance`` and fold their bounds.

    With ``resume=True`` (and a ``checkpoint_dir``), worker snapshots
    from an earlier race seed the incumbent and the resumable solvers'
    state. Use :func:`resume_portfolio` to also recover the strategy set
    from the manifest.
    """
    spec = spec.validated()
    incumbent = Incumbent()
    resume_states: dict[str, dict] = {}
    if resume:
        if not spec.checkpoint_dir:
            raise ValueError("resume needs a checkpoint_dir")
        resume_states = {
            worker: revive_vertices(state, instance.vertices())
            for worker, state in list_worker_states(spec.checkpoint_dir).items()
        }
        _seed_incumbent(incumbent, resume_states)
    if spec.checkpoint_dir:
        write_manifest(
            spec.checkpoint_dir,
            {
                "measure": spec.measure,
                "instance": spec.instance_name,
                "time_limit": spec.time_limit,
                "mode": spec.mode,
                "seed": spec.seed,
                "strategies": [s.to_dict() for s in spec.strategies],
            },
        )
    if spec.mode == "inline":
        return _run_inline(instance, spec, incumbent, resume_states)
    return _run_processes(instance, spec, incumbent, resume_states)


def resume_portfolio(
    instance,
    checkpoint_dir: str,
    time_limit: float | None = None,
    mode: str | None = None,
) -> PortfolioResult:
    """Resume a checkpointed race from its directory alone.

    The manifest restores the measure and strategy set; ``time_limit`` /
    ``mode`` override the original settings (a resumed race usually gets
    a fresh budget).
    """
    manifest = read_manifest(checkpoint_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {checkpoint_dir!r}")
    spec = PortfolioSpec(
        measure=manifest["measure"],
        strategies=[
            StrategySpec.from_dict(s) for s in manifest.get("strategies", [])
        ],
        time_limit=(
            time_limit if time_limit is not None else manifest.get("time_limit")
        ),
        mode=mode if mode is not None else manifest.get("mode", "process"),
        seed=int(manifest.get("seed", 0)),
        instance_name=manifest.get("instance", "instance"),
        checkpoint_dir=checkpoint_dir,
    )
    return run_portfolio(instance, spec, resume=True)


def _seed_incumbent(incumbent: Incumbent, states: dict[str, dict]) -> None:
    """Pre-load the incumbent with every snapshot's best-so-far bounds."""
    for worker, state in states.items():
        best = state.get("best_fitness")
        if best is not None:
            incumbent.offer_upper(
                int(best), state.get("best_individual"), f"{worker}:checkpoint"
            )
        lower = state.get("lower_bound")
        if lower is not None:
            incumbent.offer_lower(int(lower), f"{worker}:checkpoint")


def _resumable(kind: str) -> bool:
    """Exact searches restart (seeded via the incumbent); the rest resume."""
    return kind not in ("bb", "astar")


def _finish(
    spec: PortfolioSpec,
    incumbent: Incumbent,
    workers: list[WorkerResult],
    worker_reports: list[dict],
    stop_reason: str,
    elapsed: float,
) -> PortfolioResult:
    metrics = obs.current().metrics
    if metrics.enabled:
        metrics.counter(
            "bound_improvements", solver="portfolio", side="upper"
        ).inc(incumbent.upper_improvements)
        metrics.counter(
            "bound_improvements", solver="portfolio", side="lower"
        ).inc(incumbent.lower_improvements)
        if incumbent.upper is not None:
            metrics.gauge("portfolio_upper_bound").set(incumbent.upper)
        if incumbent.lower is not None:
            metrics.gauge("portfolio_lower_bound").set(incumbent.lower)
    return PortfolioResult(
        measure=spec.measure,
        lower_bound=incumbent.lower,
        upper_bound=incumbent.upper,
        ordering=list(incumbent.ordering or []),
        stop_reason="closed" if incumbent.closed else stop_reason,
        elapsed=elapsed,
        workers=workers,
        upper_source=incumbent.upper_source,
        lower_source=incumbent.lower_source,
        worker_reports=worker_reports,
    )


# ----------------------------------------------------------------------
# inline mode
# ----------------------------------------------------------------------


def _run_inline(
    instance,
    spec: PortfolioSpec,
    incumbent: Incumbent,
    resume_states: dict[str, dict],
) -> PortfolioResult:
    started = time.monotonic()
    deadline = started + spec.time_limit if spec.time_limit else None
    ins = obs.current()
    # Heuristics run first so the exact searches inherit a tight
    # incumbent; relative order within each class is preserved.
    ordered = [s for s in spec.strategies if not s.exact] + [
        s for s in spec.strategies if s.exact
    ]
    workers: list[WorkerResult] = []
    worker_reports: list[dict] = []
    deadline_hit = False
    with ins.tracer.span(
        "portfolio", mode="inline", strategies=len(ordered)
    ):
        for index, strategy in enumerate(ordered):
            if incumbent.closed:
                workers.append(_stopped(strategy))
                continue
            now = time.monotonic()
            slice_limit: float | None = None
            if deadline is not None:
                remaining = deadline - now
                if remaining <= 0:
                    deadline_hit = True
                    workers.append(_stopped(strategy))
                    continue
                slice_limit = remaining / (len(ordered) - index)
            checkpointer = (
                Checkpointer(
                    spec.checkpoint_dir,
                    strategy.name,
                    interval_s=spec.checkpoint_interval,
                )
                if spec.checkpoint_dir
                else None
            )
            control = InlineClient(
                strategy.name,
                incumbent,
                deadline=now + slice_limit if slice_limit is not None else None,
                checkpointer=checkpointer,
            )
            resume_state = (
                resume_states.get(strategy.name)
                if _resumable(strategy.kind)
                else None
            )
            with obs.instrument() as worker_ins:
                try:
                    result = run_strategy(
                        strategy,
                        instance,
                        spec.measure,
                        time_limit=slice_limit,
                        control=control,
                        resume_state=resume_state,
                    )
                except Exception as error:
                    result = WorkerResult(
                        name=strategy.name,
                        kind=strategy.kind,
                        status="error",
                        error=f"{type(error).__name__}: {error}",
                    )
                report = capture_worker_report(
                    worker_ins,
                    strategy,
                    result,
                    spec.instance_name,
                    spec.measure,
                )
            if checkpointer is not None:
                checkpointer.flush()
            _fold_result(incumbent, result)
            workers.append(result)
            worker_reports.append(report.to_dict())
    elapsed = time.monotonic() - started
    if deadline is not None and time.monotonic() >= deadline:
        deadline_hit = True
    stop_reason = "deadline" if deadline_hit else "exhausted"
    return _finish(
        spec, incumbent, workers, worker_reports, stop_reason, elapsed
    )


def _stopped(strategy: StrategySpec) -> WorkerResult:
    return WorkerResult(
        name=strategy.name, kind=strategy.kind, status="stopped"
    )


def _fold_result(incumbent: Incumbent, result: WorkerResult) -> None:
    """Fold a worker's final bounds (belt and braces: the worker already
    published improvements through its control)."""
    if result.upper_bound is not None:
        incumbent.offer_upper(
            result.upper_bound, result.ordering or None, result.name
        )
    if result.lower_bound is not None:
        incumbent.offer_lower(result.lower_bound, result.name)


# ----------------------------------------------------------------------
# process mode
# ----------------------------------------------------------------------


def _run_processes(
    instance,
    spec: PortfolioSpec,
    incumbent: Incumbent,
    resume_states: dict[str, dict],
) -> PortfolioResult:
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    started = time.monotonic()
    deadline = started + spec.time_limit if spec.time_limit else None
    bus_queue = ctx.Queue()
    stop_event = ctx.Event()
    shared_upper = ctx.Value(
        "q", incumbent.upper if incumbent.upper is not None else UB_SENTINEL
    )
    shared_lower = ctx.Value(
        "q", incumbent.lower if incumbent.lower is not None else LB_SENTINEL
    )

    processes: dict[str, multiprocessing.Process] = {}
    for strategy in spec.strategies:
        resume_state = (
            resume_states.get(strategy.name)
            if _resumable(strategy.kind)
            else None
        )
        process = ctx.Process(
            target=worker_main,
            args=(
                strategy.to_dict(),
                instance,
                spec.instance_name,
                spec.measure,
                spec.time_limit,
                bus_queue,
                stop_event,
                shared_upper,
                shared_lower,
                spec.checkpoint_dir,
                spec.checkpoint_interval,
                resume_state,
            ),
            daemon=True,
            name=f"portfolio-{strategy.name}",
        )
        processes[strategy.name] = process

    results: dict[str, tuple[WorkerResult, dict]] = {}
    stop_reason = "exhausted"
    stop_at: float | None = None

    ins = obs.current()
    with ins.tracer.span(
        "portfolio", mode="process", strategies=len(spec.strategies)
    ):
        for process in processes.values():
            process.start()
        try:
            while len(results) < len(processes):
                message = _poll(bus_queue, spec.poll_interval)
                if message is not None:
                    _handle(message, incumbent, results)
                now = time.monotonic()
                if incumbent.closed and not stop_event.is_set():
                    stop_reason = "closed"
                    stop_event.set()
                    stop_at = now
                elif (
                    deadline is not None
                    and now >= deadline
                    and not stop_event.is_set()
                ):
                    stop_reason = "deadline"
                    stop_event.set()
                    stop_at = now
                if stop_at is not None and now - stop_at > spec.grace:
                    break  # stragglers get terminated below
                if message is None and all(
                    not p.is_alive() for p in processes.values()
                ):
                    # Everything exited; drain whatever is still queued.
                    while True:
                        message = _poll(bus_queue, 0.05)
                        if message is None:
                            break
                        _handle(message, incumbent, results)
                    break
        finally:
            stop_event.set()
            _reap(processes, bus_queue, incumbent, results, spec.grace)

    workers: list[WorkerResult] = []
    worker_reports: list[dict] = []
    for strategy in spec.strategies:
        if strategy.name in results:
            result, report = results[strategy.name]
            workers.append(result)
            worker_reports.append(report)
        else:
            workers.append(_stopped(strategy))
    for result, _report in results.values():
        _fold_result(incumbent, result)
    elapsed = time.monotonic() - started
    return _finish(
        spec, incumbent, workers, worker_reports, stop_reason, elapsed
    )


def _poll(bus_queue, timeout: float) -> BoundMessage | None:
    try:
        return bus_queue.get(timeout=timeout)
    except queue_module.Empty:
        return None


def _handle(
    message: BoundMessage,
    incumbent: Incumbent,
    results: dict[str, tuple[WorkerResult, dict]],
) -> None:
    if message.type == "upper" and message.value is not None:
        incumbent.offer_upper(message.value, message.ordering, message.worker)
    elif message.type == "lower" and message.value is not None:
        incumbent.offer_lower(message.value, message.worker)
    elif message.type == "result":
        results[message.worker] = (
            WorkerResult.from_dict(message.payload["result"]),
            message.payload["report"],
        )


def _reap(
    processes,
    bus_queue,
    incumbent: Incumbent,
    results: dict,
    grace: float,
) -> None:
    """Graceful teardown: join, escalate to terminate, then kill."""
    deadline = time.monotonic() + grace
    for process in processes.values():
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in processes.values():
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + grace
    for process in processes.values():
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
    # Final drain: results flushed during the grace window.
    while True:
        message = _poll(bus_queue, 0.05)
        if message is None:
            break
        _handle(message, incumbent, results)


def portfolio_report(
    ins,
    result: PortfolioResult,
    instance_name: str,
    meta: dict | None = None,
    certified: bool | None = None,
) -> RunReport:
    """The portfolio-level RunReport, nesting every worker's report.

    ``certified`` records whether the incumbent's witness ordering was
    re-validated (see :mod:`repro.verify.certify`); the scheduler itself
    never certifies — callers that do pass the flag through.
    """
    from repro.portfolio.results import portfolio_status

    status = portfolio_status(result)
    combined_meta = {
        "stop_reason": result.stop_reason,
        "upper_source": result.upper_source,
        "lower_source": result.lower_source,
    }
    combined_meta.update(meta or {})
    return RunReport.capture(
        ins,
        instance=instance_name,
        solver="portfolio",
        measure=result.measure,
        status=status,
        value=result.value,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        elapsed_s=result.elapsed,
        certified=certified,
        meta=combined_meta,
        workers=result.worker_reports,
    )
