"""A programmable experiment runner.

The thesis's evaluation consists of tables: instances down the rows,
algorithms/bounds across the columns. This module makes that pattern a
library feature so downstream users can stage their own comparisons
without copying the benchmark harness:

    spec = ExperimentSpec(
        instances=["queen5_5", "myciel4"],
        measure="tw",
        algorithms=["astar", "ga", "sa", "min-fill"],
        time_limit=5.0,
    )
    table = run_experiment(spec)
    print(table.to_text())

Algorithms are addressed by the same names the CLI uses — the kinds of
the solver table :data:`repro.core.solvers.SOLVERS`, plus
``"portfolio"`` — and every cell runs through
:func:`repro.portfolio.workers.run_strategy`; exact algorithms report
``value`` or ``lb*[ub]`` brackets, heuristics report their upper
bound. Results are plain data (list of dicts), so they feed
into any further analysis.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import obs
from repro.core.solvers import SOLVERS, kinds
from repro.core.widths import WIDTHS, lookup_width
from repro.genetic.engine import GAParameters
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.registry import instance as registry_instance
from repro.obs.report import RunReport, append_jsonl
from repro.portfolio.results import WorkerResult
from repro.portfolio.strategies import StrategySpec
from repro.portfolio.workers import run_strategy

#: The anytime racing portfolio (inline mode): certifies when any
#: worker's lower bound meets any worker's upper bound.
PORTFOLIO = "portfolio"


@dataclass
class ExperimentSpec:
    """What to run: instances x algorithms for one width measure."""

    instances: list[str]
    measure: str = "tw"
    algorithms: list[str] = field(default_factory=lambda: ["astar"])
    time_limit: float | None = None
    node_limit: int | None = None
    seed: int = 0
    ga_parameters: GAParameters | None = None
    jobs: int = 1
    """Process-pool width for GA/SAIGA population evaluation (1 = serial)."""

    def validated(self) -> "ExperimentSpec":
        lookup_width(self.measure)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        known = {*kinds(self.measure), PORTFOLIO}
        unknown = [a for a in self.algorithms if a not in known]
        if unknown:
            raise ValueError(
                f"unknown algorithms for {self.measure}: {unknown}; "
                f"choose from {sorted(known)}"
            )
        if not self.instances:
            raise ValueError("need at least one instance")
        return self


@dataclass
class ExperimentTable:
    """Results: one dict per instance, one key per algorithm."""

    measure: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    reports: list[RunReport] = field(default_factory=list)
    """One telemetry report per (instance, algorithm) cell, when enabled."""

    def to_text(self) -> str:
        headers = ["instance", "V", "size"] + self.columns
        grid = [headers]
        for row in self.rows:
            grid.append([str(row.get(h, "")) for h in headers])
        widths = [
            max(len(line[i]) for line in grid) for i in range(len(headers))
        ]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            for line in grid
        ]
        return "\n".join(lines)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def _fields(result: WorkerResult) -> tuple[str | int, dict]:
    """Cell text plus structured outcome; heuristics certify only an
    upper bound, interrupted searches show an ``lb*[ub]`` bracket."""
    optimal = result.status == "optimal"
    if result.status == "interrupted":
        cell: str | int = f"{result.lower_bound}*[{result.upper_bound}]"
    else:
        cell = result.upper_bound
    return cell, {
        "status": result.status,
        "value": result.upper_bound if optimal else None,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
    }


def _run_portfolio(instance, spec) -> tuple[str | int, dict, list, bool]:
    """One inline-mode race as a table cell; worker reports ride along."""
    from repro.core.api import run_portfolio
    from repro.portfolio.results import portfolio_status

    result = run_portfolio(
        instance,
        measure=spec.measure,
        time_limit=spec.time_limit,
        mode="inline",
        seed=spec.seed,
    )
    if result.optimal:
        cell: str | int = result.value
    elif result.upper_bound is not None:
        lb = "?" if result.lower_bound is None else result.lower_bound
        cell = f"{lb}*[{result.upper_bound}]"
    else:
        cell = "-"
    return cell, {
        "status": portfolio_status(result),
        "value": result.value,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "workers": result.worker_reports,
    }, result.ordering, False


def _run_algorithm(name, instance, spec) -> tuple[str | int, dict, list, bool]:
    """Cell text, report fields, witness ordering, and whether the claim
    came from an exact search."""
    if name == PORTFOLIO:
        return _run_portfolio(instance, spec)
    solver = SOLVERS[(name, spec.measure)]
    strategy = StrategySpec(
        name=name,
        kind=name,
        seed=spec.seed,
        jobs=spec.jobs,
        options=solver.options(
            node_limit=spec.node_limit, parameters=spec.ga_parameters
        ),
    )
    result = run_strategy(
        strategy, instance, spec.measure, time_limit=spec.time_limit
    )
    return (*_fields(result), result.ordering, solver.exact)


def run_experiment(
    spec: ExperimentSpec,
    telemetry_out: str | None = None,
    collect_reports: bool = False,
) -> ExperimentTable:
    """Execute the spec and return the filled table.

    With ``telemetry_out`` (a ``.jsonl`` path) or ``collect_reports``,
    every (instance, algorithm) cell runs under ``repro.obs``
    instrumentation and yields one :class:`RunReport`; reports land in
    ``table.reports`` and, if a path was given, are appended to the file
    as JSON lines. Each report's claim is certified against its
    witness ordering, outside the cell's timing.
    """
    spec = spec.validated()
    telemetry = telemetry_out is not None or collect_reports
    table = ExperimentTable(measure=spec.measure, columns=list(spec.algorithms))
    width = WIDTHS[spec.measure]
    for name in spec.instances:
        loaded = registry_instance(name)
        try:
            instance = width.prepare(loaded)
        except ValueError as error:
            raise ValueError(f"instance {name!r}: {error}") from None
        row: dict = {"instance": name, "V": loaded.num_vertices(), "size": _size(loaded)}
        for algorithm in spec.algorithms:
            started = time.monotonic()
            with obs.instrument() if telemetry else nullcontext(obs.DISABLED) as ins:
                cell, fields, ordering, exact = _run_algorithm(algorithm, instance, spec)
            elapsed = time.monotonic() - started
            row[algorithm] = cell
            row[f"{algorithm}_s"] = round(elapsed, 2)
            if telemetry:
                fields["certified"] = width.certified(
                    instance, ordering, fields["upper_bound"], width.strict(exact)
                )
                table.reports.append(
                    RunReport.capture(
                        ins,
                        instance=name,
                        solver=algorithm,
                        measure=spec.measure,
                        elapsed_s=elapsed,
                        meta={"seed": spec.seed, "jobs": spec.jobs},
                        **fields,
                    )
                )
        table.rows.append(row)
    if telemetry_out is not None:
        for report in table.reports:
            append_jsonl(telemetry_out, report)
    return table


def _size(instance: Graph | Hypergraph) -> str:
    if isinstance(instance, Hypergraph):
        return f"|H|={instance.num_edges()}"
    return f"|E|={instance.num_edges()}"
