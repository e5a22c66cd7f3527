"""``benchmarks/opcount.py`` counts the same bytecodes on every run.

The script is a deterministic cross-check for speedups too small for
timings on a shared host; that only holds if two fresh interpreters
running one cell at one seed count the same number of instructions,
in total and per function.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _opcount_module():
    spec = importlib.util.spec_from_file_location(
        "opcount", ROOT / "benchmarks" / "opcount.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_one_cell_count_the_same():
    opcount = _opcount_module()
    cells = opcount.load_cells()
    small = [
        cells.Cell("tw", "bb", "myciel3"),
        cells.Cell("ghw", "astar", "grid2d_3"),
    ]
    first = opcount.count_cells(small, seed=3)
    second = opcount.count_cells(small, seed=3)
    assert first == second
    assert set(first) == {"bb-tw:myciel3", "astar-ghw:grid2d_3"}
    assert all(count > 0 for count in first.values())



def test_per_function_counts_repeat_and_stay_within_the_total():
    opcount = _opcount_module()
    cells = opcount.load_cells()
    small = [cells.Cell("tw", "astar", "myciel3")]
    first = opcount.count_functions(small, seed=5, top=6)
    second = opcount.count_functions(small, seed=5, top=6)
    assert first == second
    counts, functions = first
    assert counts == opcount.count_cells(small, seed=5)
    top = functions["astar-tw:myciel3"]
    assert len(top) == 6
    assert all(count > 0 for count in top.values())
    assert list(top.values()) == sorted(top.values(), reverse=True)
    assert sum(top.values()) <= counts["astar-tw:myciel3"]
    assert any(name.startswith("repro/") for name in top)
    # Every function of the cell together is the cell's total.
    _, everything = opcount.count_functions(small, seed=5, top=10**6)
    assert sum(everything["astar-tw:myciel3"].values()) == counts["astar-tw:myciel3"]
