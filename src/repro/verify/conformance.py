"""The differential conformance matrix: every registered solver, serial
and parallel, fresh and resumed — cross-checked.

Each generated instance is pushed through a matrix of *cells*. A cell is
one configured solver run (a :class:`~repro.portfolio.strategies.
StrategySpec` in all but name); its reported width is never taken at
face value — the witness ordering is re-decomposed and certified by
:mod:`repro.verify.certify`. On top of per-cell certification the runner
checks relations *between* cells that hold by theorem, not by test
oracle:

* all exact solvers (and any portfolio that closed its bounds) must
  agree on the optimum;
* no certified witness may beat a proven optimum, and no claimed lower
  bound may exceed a certified upper bound;
* cells of a deterministic measure (treewidth fitness has no ties to
  break) that differ only in job count must report identical widths;
* a resumed portfolio race may only match or improve the incumbent it
  was killed with, and two closed races must agree on the optimum;
* ``ghw(H) <= tw(H) + 1`` whenever both optima are proven.

Any violated relation becomes a :class:`Divergence`; the shrinker in
:mod:`repro.verify.shrink` then minimises the instance behind it.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from repro.core.solvers import SOLVERS
from repro.core.widths import WIDTHS
from repro.portfolio.scheduler import (
    PortfolioSpec,
    resume_portfolio,
    run_portfolio,
)
from repro.portfolio.strategies import StrategySpec
from repro.portfolio.workers import run_strategy
from repro.verify.certify import Certification
from repro.verify.generators import (
    FAMILIES,
    VerifyInstance,
    generate_instance,
)

#: Deliberately small heuristic budgets: the matrix needs breadth (many
#: seeds x many cells), not per-cell solution quality. Kinds not listed
#: (the exact searches and ordering heuristics) run with no options.
GA_OPTIONS = {"population_size": 12, "max_iterations": 15}
SAIGA_OPTIONS = {
    "islands": 2,
    "island_population": 8,
    "epochs": 2,
    "epoch_generations": 4,
}
SA_OPTIONS = {
    "initial_temperature": 2.0,
    "cooling_rate": 0.9,
    "steps_per_temperature": 10,
}
TABU_OPTIONS = {
    "iterations": 30,
    "tenure": 5,
    "neighbourhood_sample": 10,
    "stall_restart": 15,
}
CELL_OPTIONS = {
    "ga": GA_OPTIONS,
    "saiga": SAIGA_OPTIONS,
    "sa": SA_OPTIONS,
    "tabu": TABU_OPTIONS,
}


@dataclass
class CellSpec:
    """One solver configuration in the conformance matrix."""

    name: str
    measure: str
    kind: str
    jobs: int = 1
    options: dict = field(default_factory=dict)
    strict: bool = False
    """Require the certified width to *equal* the claim (sound for
    solvers whose evaluator is exact/deterministic for the measure)."""

    allow_no_claim: bool = False
    """A cell that may legitimately report no upper bound (a race killed
    before its first incumbent)."""


@dataclass
class CellResult:
    """One cell's outcome on one instance, with its certification."""

    cell: CellSpec
    status: str
    lower_bound: int | None = None
    upper_bound: int | None = None
    witness_width: int | None = None
    certified: bool = False
    reason: str | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.name,
            "measure": self.cell.measure,
            "status": self.status,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "witness_width": self.witness_width,
            "certified": self.certified,
            "reason": self.reason,
            "elapsed": round(self.elapsed, 4),
        }


@dataclass
class Divergence:
    """One violated conformance relation on one instance."""

    instance: str
    family: str
    seed: int
    measure: str
    kind: str
    """Relation slug: ``uncertified``, ``exact-disagreement``,
    ``impossible-width``, ``bound-crossing``, ``parity``,
    ``resume-regression``, ``resume-disagreement``, ``measure-order``."""

    cells: list[str] = field(default_factory=list)
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "family": self.family,
            "seed": self.seed,
            "measure": self.measure,
            "kind": self.kind,
            "cells": list(self.cells),
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return (
            f"{self.instance} [{self.measure}/{self.kind}] "
            f"{'+'.join(self.cells)}: {self.detail}"
        )


@dataclass
class InstanceVerdict:
    """Everything the matrix concluded about one instance."""

    instance: VerifyInstance
    cells: list[CellResult] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.name,
            "family": self.instance.family,
            "seed": self.instance.seed,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "divergences": [d.to_dict() for d in self.divergences],
        }


@dataclass
class ConformanceReport:
    """Aggregate over all seeds of one conformance run."""

    verdicts: list[InstanceVerdict] = field(default_factory=list)

    @property
    def divergences(self) -> list[Divergence]:
        return [d for v in self.verdicts for d in v.divergences]

    @property
    def cells_run(self) -> int:
        return sum(len(v.cells) for v in self.verdicts)

    @property
    def cells_certified(self) -> int:
        return sum(
            1 for v in self.verdicts for c in v.cells if c.certified
        )

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def summary(self) -> str:
        return (
            f"conformance: {len(self.verdicts)} instances, "
            f"{self.cells_run} cells, "
            f"{self.cells_certified} certified, "
            f"{len(self.divergences)} divergences"
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "instances": len(self.verdicts),
            "cells": self.cells_run,
            "certified": self.cells_certified,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def default_matrix(
    measures: tuple[str, ...] = tuple(WIDTHS), seed: int = 0
) -> list[CellSpec]:
    """The standard matrix for one instance: one cell per
    ``(kind, measure)`` row of :data:`~repro.core.solvers.SOLVERS`, plus
    a ``jobs=2`` GA cell per measure.

    A cell is strict by its measure's row (:meth:`Width.strict
    <repro.core.widths.Width.strict>`): exact searches always, and every
    solver of a deterministic measure (tw). The ghw heuristics cover
    greedily (with random ties at ``jobs=1``), so their claims are upper
    bounds on their own witness's exact-cover width.
    """
    cells: list[CellSpec] = []
    for measure in measures:
        width = WIDTHS[measure]
        for (kind, row_measure), solver in SOLVERS.items():
            if row_measure != measure:
                continue
            for jobs in (1, 2) if kind == "ga" else (1,):
                suffix = "-j2" if jobs > 1 else ""
                cells.append(
                    CellSpec(
                        name=f"{kind}{suffix}-{measure}",
                        measure=measure,
                        kind=kind,
                        jobs=jobs,
                        options=dict(CELL_OPTIONS.get(kind, {})),
                        strict=width.strict(solver.exact),
                    )
                )
    return cells


def _certified_result(
    cell: CellSpec,
    instance: VerifyInstance,
    result,
    status: str,
    elapsed: float,
) -> CellResult:
    """A cell's result with its claim certified by the measure's row."""
    if result.upper_bound is None:
        certification = (
            Certification(ok=True, reason="no claim (interrupted)")
            if cell.allow_no_claim
            else Certification(ok=False, reason="no upper bound reported")
        )
    else:
        width = WIDTHS[cell.measure]
        certification = width.certify(
            width.prepare(instance.hypergraph),
            list(result.ordering),
            result.upper_bound,
            strict=cell.strict,
        )
    return CellResult(
        cell=cell,
        status=status,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        witness_width=certification.witness_width,
        certified=certification.ok,
        reason=certification.reason,
        elapsed=elapsed,
    )


def run_cell(
    cell: CellSpec,
    instance: VerifyInstance,
    seed: int = 0,
    time_limit: float | None = 10.0,
) -> CellResult:
    """Run one matrix cell and certify whatever it claims."""
    spec = StrategySpec(
        name=cell.name,
        kind=cell.kind,
        seed=seed,
        jobs=cell.jobs,
        options=dict(cell.options),
    )
    started = time.monotonic()
    try:
        result = run_strategy(
            spec, instance.hypergraph, cell.measure, time_limit=time_limit
        )
    except Exception as error:
        return CellResult(
            cell=cell,
            status="error",
            certified=False,
            reason=f"{type(error).__name__}: {error}",
            elapsed=time.monotonic() - started,
        )
    elapsed = result.elapsed or (time.monotonic() - started)
    return _certified_result(cell, instance, result, result.status, elapsed)


# ----------------------------------------------------------------------
# portfolio cells: fresh, killed, resumed
# ----------------------------------------------------------------------


def _portfolio_strategies(measure: str, seed: int) -> list[StrategySpec]:
    """Fresh spec objects every call — races validate/own their specs."""
    return [
        StrategySpec(name="bb", kind="bb", seed=seed),
        StrategySpec(name="ga", kind="ga", seed=seed + 1, options=dict(GA_OPTIONS)),
        StrategySpec(
            name="tabu", kind="tabu", seed=seed + 2, options=dict(TABU_OPTIONS)
        ),
    ]


def _portfolio_cell_result(
    name: str,
    measure: str,
    instance: VerifyInstance,
    result,
    allow_no_claim: bool = False,
) -> CellResult:
    strict = WIDTHS[measure].strict(exact=False)
    cell = CellSpec(
        name, measure, "portfolio", strict=strict, allow_no_claim=allow_no_claim
    )
    status = "optimal" if result.optimal else "heuristic"
    return _certified_result(cell, instance, result, status, result.elapsed)


def run_portfolio_cells(
    instance: VerifyInstance,
    measure: str,
    seed: int = 0,
    time_limit: float = 5.0,
    interrupt_after: float = 0.15,
) -> tuple[list[CellResult], list[Divergence]]:
    """The fresh / killed / resumed portfolio triple for one measure.

    The killed race runs with a checkpoint directory and a deliberately
    tiny deadline; the resumed race reconstructs it from the directory
    alone with a fresh budget. The resume contract (incumbent seeded
    from snapshots before any worker restarts) means the resumed race
    may only match or improve the killed race's incumbent.
    """
    cells: list[CellResult] = []
    divergences: list[Divergence] = []

    def race(**options):
        return run_portfolio(
            instance.hypergraph,
            PortfolioSpec(
                measure=measure,
                strategies=_portfolio_strategies(measure, seed),
                mode="inline",
                seed=seed,
                instance_name=instance.name,
                **options,
            ),
        )

    fresh = race(time_limit=time_limit)
    cells.append(
        _portfolio_cell_result(
            f"portfolio-{measure}", measure, instance, fresh
        )
    )

    with tempfile.TemporaryDirectory(prefix="repro-verify-") as checkpoints:
        killed = race(
            time_limit=interrupt_after,
            checkpoint_dir=checkpoints,
            checkpoint_interval=0.01,
        )
        cells.append(
            _portfolio_cell_result(
                f"portfolio-killed-{measure}",
                measure,
                instance,
                killed,
                allow_no_claim=True,
            )
        )
        resumed = resume_portfolio(
            instance.hypergraph,
            checkpoints,
            time_limit=time_limit,
            mode="inline",
        )
    cells.append(
        _portfolio_cell_result(
            f"portfolio-resumed-{measure}", measure, instance, resumed
        )
    )

    def diverge(kind: str, names: list[str], detail: str) -> None:
        divergences.append(_divergence(instance, measure, kind, names, detail))

    if (
        killed.upper_bound is not None
        and resumed.upper_bound is not None
        and resumed.upper_bound > killed.upper_bound
    ):
        diverge(
            "resume-regression",
            [f"portfolio-killed-{measure}", f"portfolio-resumed-{measure}"],
            f"resumed incumbent {resumed.upper_bound} is worse than the "
            f"killed race's {killed.upper_bound}; resume seeds the "
            "incumbent from checkpoints and can only improve it",
        )
    if fresh.optimal and resumed.optimal and fresh.value != resumed.value:
        diverge(
            "resume-disagreement",
            [f"portfolio-{measure}", f"portfolio-resumed-{measure}"],
            f"both races closed their bounds but disagree: fresh proved "
            f"{fresh.value}, resumed proved {resumed.value}",
        )
    return cells, divergences


# ----------------------------------------------------------------------
# cross-cell relations
# ----------------------------------------------------------------------


def _divergence(
    instance: VerifyInstance, measure: str, kind: str, cells: list[str], detail: str
) -> Divergence:
    return Divergence(
        instance=instance.name,
        family=instance.family,
        seed=instance.seed,
        measure=measure,
        kind=kind,
        cells=cells,
        detail=detail,
    )


def _parity_key(cell: CellSpec, seed: int) -> tuple:
    """Cells equal under this key must report equal widths (deterministic
    measures only: their fitness has no ties, and parallel evaluation
    must not change results)."""
    return (
        cell.measure,
        cell.kind,
        seed,
        tuple(sorted(cell.options.items())),
    )


def _cross_check(
    instance: VerifyInstance,
    results: list[CellResult],
    measure: str,
) -> list[Divergence]:
    divergences: list[Divergence] = []
    in_measure = [r for r in results if r.cell.measure == measure]

    def diverge(kind: str, names: list[str], detail: str) -> None:
        divergences.append(_divergence(instance, measure, kind, names, detail))

    for result in in_measure:
        if not result.certified:
            diverge(
                "uncertified",
                [result.cell.name],
                result.reason or "certification failed",
            )

    optimal = [r for r in in_measure if r.status == "optimal"]
    values = sorted({r.upper_bound for r in optimal})
    if len(values) > 1:
        diverge(
            "exact-disagreement",
            [r.cell.name for r in optimal],
            f"solvers proved different optima: {values}",
        )
    proven = values[0] if len(values) == 1 else None

    certified = [r for r in in_measure if r.certified and r.witness_width is not None]
    if proven is not None:
        for result in certified:
            if result.witness_width < proven:
                diverge(
                    "impossible-width",
                    [result.cell.name] + [r.cell.name for r in optimal],
                    f"certified witness of width {result.witness_width} "
                    f"beats the proven optimum {proven}",
                )

    lower_cells = [r for r in in_measure if r.lower_bound is not None]
    if lower_cells and certified:
        best_lower = max(lower_cells, key=lambda r: r.lower_bound)
        best_upper = min(certified, key=lambda r: r.witness_width)
        if best_lower.lower_bound > best_upper.witness_width:
            diverge(
                "bound-crossing",
                [best_lower.cell.name, best_upper.cell.name],
                f"claimed lower bound {best_lower.lower_bound} exceeds "
                f"certified upper bound {best_upper.witness_width}",
            )
    return divergences


def _parity_check(
    instance: VerifyInstance, results: list[CellResult], seed: int
) -> list[Divergence]:
    groups: dict[tuple, list[CellResult]] = {}
    for result in results:
        if (
            not WIDTHS[result.cell.measure].deterministic
            or result.cell.kind == "portfolio"
        ):
            continue
        if not result.certified or result.upper_bound is None:
            continue
        groups.setdefault(_parity_key(result.cell, seed), []).append(result)
    divergences: list[Divergence] = []
    for group in groups.values():
        widths = sorted({r.upper_bound for r in group})
        if len(widths) > 1:
            divergences.append(
                _divergence(
                    instance,
                    group[0].cell.measure,
                    "parity",
                    [r.cell.name for r in group],
                    f"deterministic cells disagree across jobs: widths {widths}",
                )
            )
    return divergences


def _measure_order_check(
    instance: VerifyInstance, results: list[CellResult]
) -> list[Divergence]:
    """``ghw(H) <= tw(H) + 1`` whenever both optima are proven."""

    def proven(measure: str) -> int | None:
        values = {
            r.upper_bound
            for r in results
            if r.cell.measure == measure and r.status == "optimal"
        }
        return values.pop() if len(values) == 1 else None

    tw, ghw = proven("tw"), proven("ghw")
    if tw is not None and ghw is not None and ghw > tw + 1:
        return [
            _divergence(
                instance,
                "ghw",
                "measure-order",
                ["bb-tw", "bb-ghw"],
                f"ghw {ghw} > tw {tw} + 1 violates ghw <= tw + 1",
            )
        ]
    return []


# ----------------------------------------------------------------------
# driving the matrix
# ----------------------------------------------------------------------


def check_hypergraph(
    instance: VerifyInstance,
    matrix: list[CellSpec] | None = None,
    time_limit: float | None = 10.0,
    portfolio: bool = True,
    portfolio_time_limit: float = 5.0,
) -> InstanceVerdict:
    """Run the full matrix on one instance and collect divergences."""
    matrix = default_matrix() if matrix is None else matrix
    seed = instance.seed
    results = [
        run_cell(cell, instance, seed=seed, time_limit=time_limit)
        for cell in matrix
    ]
    divergences: list[Divergence] = []
    measures = sorted({cell.measure for cell in matrix})
    if portfolio:
        for measure in measures:
            cells, portfolio_divergences = run_portfolio_cells(
                instance, measure, seed=seed, time_limit=portfolio_time_limit
            )
            results.extend(cells)
            divergences.extend(portfolio_divergences)
    for measure in measures:
        divergences.extend(_cross_check(instance, results, measure))
    divergences.extend(_parity_check(instance, results, seed))
    divergences.extend(_measure_order_check(instance, results))
    return InstanceVerdict(
        instance=instance, cells=results, divergences=divergences
    )


def run_conformance(
    seeds: int = 20,
    families: tuple[str, ...] = FAMILIES,
    matrix: list[CellSpec] | None = None,
    time_limit: float | None = 10.0,
    portfolio: bool = True,
    progress=None,
) -> ConformanceReport:
    """The conformance sweep: ``seeds`` generated instances through the
    matrix. ``progress`` (if given) is called with each verdict as it
    lands — the CLI uses it for live output."""
    report = ConformanceReport()
    for seed in range(seeds):
        instance = generate_instance(seed, families=families)
        verdict = check_hypergraph(
            instance,
            matrix=matrix,
            time_limit=time_limit,
            portfolio=portfolio,
        )
        report.verdicts.append(verdict)
        if progress is not None:
            progress(verdict)
    return report
