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
    python benchmarks/opcount.py --workload tw-exact --by-function 10

Run the same command in a copy of the parent commit to compare two
trees. The last line of standard output is one JSON object
``{"workload", "seed", "cells": {name: count}, "total"}``.

``--by-function N`` also lists each cell's N functions that executed
the most bytecodes, own instructions only (a caller does not count its
callees'), under ``"functions": {cell: {"path:qualname": count}}`` in
the JSON line. A function is named by its source file (relative to
``src`` for the package, else the file name) and its qualified name;
the counts of every function of a cell sum to the cell's total.
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


def count_call(function, *args, **kwargs) -> tuple[object, dict[types.CodeType, int]]:
    """``function(*args, **kwargs)`` and the bytecodes it executed, per
    code object (the total is their sum)."""
    slots: dict[types.CodeType, list[int]] = {}

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        slot = slots.setdefault(frame.f_code, [0])

        def opcodes(frame, event, arg):
            if event == "opcode":
                slot[0] += 1
            return opcodes

        return opcodes

    sys.settrace(enter)
    try:
        result = function(*args, **kwargs)
    finally:
        sys.settrace(None)
    return result, {code: slot[0] for code, slot in slots.items()}


def function_name(code: types.CodeType) -> str:
    """``path:qualname`` of ``code``, the path relative to ``src`` for
    the package's own files and the bare file name otherwise."""
    path = Path(code.co_filename)
    source = ROOT / "src"
    shown = path.relative_to(source) if path.is_relative_to(source) else path.name
    return f"{shown}:{code.co_qualname}"


def top_functions(per_code: dict[types.CodeType, int], top: int) -> dict[str, int]:
    """The ``top`` functions of ``per_code`` by bytecodes, largest first
    (ties by name); code objects of one name are added up."""
    named: dict[str, int] = {}
    for code, executed in per_code.items():
        name = function_name(code)
        named[name] = named.get(name, 0) + executed
    ranked = sorted(named.items(), key=lambda item: (-item[1], item[0]))
    return dict(ranked[:top])


def _count_here(
    specs: list[dict], seed: int, top: int
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Count ``specs`` in this interpreter, in order, as one pass would:
    each cell's total and its ``top`` functions."""
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
    counts, functions = {}, {}
    for spec in specs:
        cell = cells.Cell(**spec)
        problem = registry.instance(cell.instance)
        if cell.heuristic:
            parameters = engine.GAParameters(
                population_size=cells.GA_POPULATION, max_iterations=cell.budget
            )
            _, per_code = count_call(
                ga_entries[cell.measure], problem, parameters=parameters, seed=seed
            )
        else:
            _, per_code = count_call(
                exact_entries[cell.measure], problem,
                algorithm=cell.algorithm, node_limit=cell.budget, seed=seed,
            )
        counts[cell.name] = sum(per_code.values())
        functions[cell.name] = top_functions(per_code, top)
    return counts, functions


def count_cells(cells: list, seed: int) -> dict[str, int]:
    """Bytecodes per cell, counted in one fresh interpreter of this
    checkout with ``PYTHONHASHSEED`` fixed to ``seed``."""
    return count_functions(cells, seed, 0)[0]


def count_functions(
    cells: list, seed: int, top: int
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """:func:`count_cells` and, per cell, its ``top`` functions by
    bytecodes (:func:`top_functions`), from the same run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    specs = json.dumps([dataclasses.asdict(cell) for cell in cells])
    done = subprocess.run(
        [
            sys.executable, __file__, "--seed", str(seed),
            "--by-function", str(top), "--count-specs", specs,
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    counts, functions = json.loads(done.stdout.strip().splitlines()[-1])
    return counts, functions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of perfbench/cells.py")
    parser.add_argument("--cell", action="append", help="only this cell (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--by-function", type=int, default=0, metavar="N",
        help="also list each cell's N functions by bytecodes",
    )
    parser.add_argument("--count-specs", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.by_function < 0:
        parser.error("--by-function must be at least 0")
    if args.count_specs is not None:  # the fresh interpreter's side
        specs = json.loads(args.count_specs)
        print(json.dumps(_count_here(specs, args.seed, args.by_function)))
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
    counts, functions = count_functions(cells, args.seed, args.by_function)
    for name, executed in counts.items():
        print(f"{name:24} {executed:>14,}")
        for function, own in functions[name].items():
            print(f"    {own:>14,} {own / executed:6.1%}  {function}")
    total = sum(counts.values())
    print(f"{'total':24} {total:>14,}")
    summary = {
        "workload": args.workload, "seed": args.seed, "cells": counts, "total": total
    }
    if args.by_function:
        summary["functions"] = functions
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
