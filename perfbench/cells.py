"""The benchmark's workloads: fixed-work cells and their answer checks.

Every cell does fixed work — a node budget, a generation count, or a
search that runs until it certifies — and never stops on a wall-clock
limit, so two runs with one seed do the same work. This module imports
no ``repro`` code at import time: the parent process reads the workload
table without loading the library, and each pass imports it fresh.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    measure: str
    """``"tw"`` or ``"ghw"``."""

    algorithm: str
    """``"astar"``, ``"bb"`` or ``"ga"``."""

    instance: str
    """Name resolved by ``repro.instances.registry.instance``."""

    budget: int | None = None
    """Node budget (exact searches) or generation count (GA); ``None``
    means the search must run until it certifies."""

    known: int | None = None
    """The instance's known optimum for this measure, when one is known."""

    @property
    def name(self) -> str:
        return f"{self.algorithm}-{self.measure}:{self.instance}"

    @property
    def heuristic(self) -> bool:
        return self.algorithm == "ga"

    @property
    def must_certify(self) -> bool:
        return not self.heuristic and self.budget is None


#: GA population size for every heuristic cell.
GA_POPULATION = 30

WORKLOADS: dict[str, tuple[Cell, ...]] = {
    # A*-tw and BB-tw: minor lower bounds, reductions, A* prefix jumps.
    "tw-exact": (
        Cell("tw", "bb", "queen5_5", known=18),
        Cell("tw", "astar", "myciel4", known=10),
        Cell("tw", "bb", "myciel4", known=10),
        Cell("tw", "astar", "grid6", budget=500, known=6),
    ),
    # BB-ghw and A*-ghw: the same bounds on fill-heavy remainders plus
    # exact covers, whose cache lookups mostly miss.
    "ghw-exact": (
        Cell("ghw", "bb", "b06", budget=1000),
        Cell("ghw", "astar", "b06", budget=150),
        Cell("ghw", "bb", "b08", budget=150),
        Cell("ghw", "bb", "grid2d_5", known=3),
        Cell("ghw", "astar", "grid2d_4", known=3),
    ),
    # GA-ghw and GA-tw on the default path: greedy covers and bags.
    "ghw-heuristic": (
        Cell("ghw", "ga", "b08", budget=1),
        Cell("ghw", "ga", "adder_30", budget=5, known=2),
        Cell("ghw", "ga", "grid2d_6", budget=20),
        Cell("tw", "ga", "queen8_8", budget=20),
    ),
}


def check(cell: Cell, lower: int, upper: int, certified: bool) -> list[str]:
    """Problems with a cell's answer (the witness is checked separately)."""
    problems = []
    if cell.must_certify and not certified:
        problems.append(f"ended uncertified at [{lower}, {upper}]")
    if certified and cell.known is not None and upper != cell.known:
        problems.append(f"certified {upper}, known optimum is {cell.known}")
    if lower > upper:
        problems.append(f"lower bound {lower} exceeds upper bound {upper}")
    if cell.known is not None and not lower <= cell.known <= upper:
        problems.append(f"[{lower}, {upper}] excludes the optimum {cell.known}")
    return problems
