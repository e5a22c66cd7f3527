"""Count the bytecodes each repo-benchmark cell executes.

On a shared 2-CPU host two ``perfbench/run.py`` runs of one tree can
read several per cent apart, which hides a small speedup. The number of
bytecode instructions a cell executes does not drift: every cell does
fixed work, and with the hash seed fixed it takes the same path each
time. This script runs a workload's cells (``perfbench/cells.py``, read
without importing the ``perfbench`` package) the way a benchmark pass
does, in one fresh interpreter with ``PYTHONHASHSEED`` set to the seed,
and counts the ``opcode`` events ``sys.settrace`` reports inside each
cell's solver call.

Only Python bytecode is counted: a builtin such as ``int.bit_count``
or ``sorted`` counts as the one call instruction that reaches it. Read
the counts beside timings as a deterministic cross-check of where
Python-level work went, not as a time. Tracing every instruction makes
a cell run tens of times slower than untraced.

Usage, from a checkout's root (it counts that checkout's ``src``)::

    python benchmarks/opcount.py --workload tw-exact --seed 0
    python benchmarks/opcount.py --workload tw-exact --cell bb-tw:queen5_5

Run the same command in a copy of the parent commit to compare two
trees. The last line of standard output is one JSON object
``{"workload", "seed", "cells": {name: count}, "total"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELLS_FILE = ROOT / "perfbench" / "cells.py"


def load_cells() -> types.ModuleType:
    """``perfbench/cells.py`` as a module, compiled from its source so
    that nothing is written next to it."""
    module = types.ModuleType("perfbench_cells")
    module.__file__ = str(CELLS_FILE)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(CELLS_FILE.read_text(), str(CELLS_FILE), "exec"), module.__dict__)
    return module


def count_call(function, *args, **kwargs) -> tuple[object, int]:
    """``function(*args, **kwargs)`` and the bytecodes it executed."""
    executed = 0

    def opcodes(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return opcodes

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    sys.settrace(enter)
    try:
        result = function(*args, **kwargs)
    finally:
        sys.settrace(None)
    return result, executed


def _count_here(specs: list[dict], seed: int) -> dict[str, int]:
    """Count ``specs`` in this interpreter, in order, as one pass would."""
    import importlib

    cells = load_cells()
    api = importlib.import_module("repro.core.api")
    engine = importlib.import_module("repro.genetic.engine")
    ga_entries = {
        "ghw": importlib.import_module("repro.genetic.ga_ghw").ga_ghw,
        "tw": importlib.import_module("repro.genetic.ga_tw").ga_treewidth,
    }
    exact_entries = {
        "ghw": api.generalized_hypertree_width,
        "tw": api.treewidth,
    }
    registry = importlib.import_module("repro.instances.registry")
    counts = {}
    for spec in specs:
        cell = cells.Cell(**spec)
        problem = registry.instance(cell.instance)
        if cell.heuristic:
            parameters = engine.GAParameters(
                population_size=cells.GA_POPULATION, max_iterations=cell.budget
            )
            _, counts[cell.name] = count_call(
                ga_entries[cell.measure], problem, parameters=parameters, seed=seed
            )
        else:
            _, counts[cell.name] = count_call(
                exact_entries[cell.measure], problem,
                algorithm=cell.algorithm, node_limit=cell.budget, seed=seed,
            )
    return counts


def count_cells(cells: list, seed: int) -> dict[str, int]:
    """Bytecodes per cell, counted in one fresh interpreter of this
    checkout with ``PYTHONHASHSEED`` fixed to ``seed``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    specs = json.dumps([dataclasses.asdict(cell) for cell in cells])
    done = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--count-specs", specs],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of perfbench/cells.py")
    parser.add_argument("--cell", action="append", help="only this cell (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count-specs", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.count_specs is not None:  # the fresh interpreter's side
        print(json.dumps(_count_here(json.loads(args.count_specs), args.seed)))
        return 0
    workloads = load_cells().WORKLOADS
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    cells = [
        cell for cell in workloads[args.workload]
        if not args.cell or cell.name in args.cell
    ]
    if not cells:
        parser.error(f"no cell of {args.workload} is named {args.cell}")
    counts = count_cells(cells, args.seed)
    for name, executed in counts.items():
        print(f"{name:24} {executed:>14,}")
    total = sum(counts.values())
    print(f"{'total':24} {total:>14,}")
    print(json.dumps(
        {"workload": args.workload, "seed": args.seed, "cells": counts, "total": total}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
