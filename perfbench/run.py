"""The repository benchmark: exact and heuristic width computations.

Run from the repository root::

    python3 perfbench/run.py --workload tw-exact --seed 0 --seconds 35 --trace 0

Workloads (``perfbench/cells.py`` lists their cells):

* ``tw-exact`` — BB-tw and A*-tw certify queen5_5 / myciel4; A*-tw on
  grid6 under a node budget;
* ``ghw-exact`` — BB-ghw and A*-ghw on b06 / b08 under node budgets, and
  certifying grid2d_5 / grid2d_4;
* ``ghw-heuristic`` — GA-ghw on b08 / adder_30 / grid2d_6 and GA-tw on
  queen8_8 at fixed generation counts.

The seed is handed to every solver (``seed=``) and fixes the hash seed of
each pass, so one seed always does the same work and gives the same
answers. A run repeats *passes* — one pass runs every cell of the
workload once, in a fresh interpreter, one process at a time — until the
next pass would overrun ``--seconds``. Set-up-only interpreters started
ahead of each pass add samples to ``setup_s``.

Timings are in seconds on the reference host: each measured time is
divided by the host's slowness measured right next to it
(``perfbench/yardstick.py``), because a shared host drifts by 30-50%
within minutes. Each cell's time is the median of its repetitions in the
run, and pass-level times sum those per cell. ``setup_s`` and
``peak_rss_mb`` are medians over the run's interpreters.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — interpreter start until ``repro`` is imported and the
  instances and primal graphs are built;
* ``pass_s`` — one pass over the cells, tracing off;
* ``work_per_s`` — expanded search nodes per search second on the exact
  workloads, fitness evaluations per GA second on ``ghw-heuristic``;
* ``ub_width_sum`` — the best upper bounds reached by the fixed-budget
  cells (node budgets, generation counts), summed;
* ``peak_rss_mb`` — peak resident memory of a pass.

The run also prints ``certify_s`` (time-to-certify), ``nodes_per_s``,
``gap_sum`` (sum of ``ub - lb`` over node-budgeted cells), ``evals_per_s``
and ``failed_share``, each where it applies.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer split (see ``perfbench/layers.py``). Every answer is checked:
certified widths against known optima, brackets for ``lb <= ub`` and
against known optima, and every upper bound's ordering through
``repro.verify.certify``. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from cells import WORKLOADS  # noqa: E402
from layers import LAYERS  # noqa: E402

#: Set-up-only interpreters started ahead of each pass, so that set-up
#: samples spread over the whole run.
SETUP_SAMPLES_PER_PASS = 2

#: A run never lets its interpreters outlive this many seconds.
CHILD_LIMIT_S = 170.0

#: Solver counters harvested from ``result.metrics`` in traced passes.
COUNTERS = ("nodes", "prunes", "reductions", "setcover_cache", "setcover_nodes",
            "evaluations", "generations")


class PassError(RuntimeError):
    """A pass interpreter failed or produced no record."""


def _spawn(args: argparse.Namespace, trace: int, setup_only: bool, limit: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--spawned", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=limit
        )
    except subprocess.TimeoutExpired as error:
        raise PassError(f"pass did not finish within {limit:.0f} s") from error
    if done.returncode != 0:
        raise PassError(
            f"pass exited with code {done.returncode}:\n{done.stderr.strip()}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise PassError("pass printed no record")
    return json.loads(lines[-1])


def _cell_times(records: list[dict]) -> dict[str, float]:
    """Each cell's median scaled time over the given passes."""
    samples: dict[str, list[float]] = {}
    for record in records:
        for row in record["cells"]:
            samples.setdefault(row["cell"], []).append(row["scaled_s"])
    return {name: statistics.median(times) for name, times in samples.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _summarise(records: list[dict], workload: str) -> dict[str, float]:
    """End-to-end figures of a run's untraced passes."""
    cells = {cell.name: cell for cell in WORKLOADS[workload]}
    times = _cell_times(records)
    rows = [row for row in records[0]["cells"] if "upper" in row]
    budgeted = [row for row in rows if cells[row["cell"]].budget is not None]
    exact = [row for row in rows if "nodes" in row]
    heuristic = [row for row in rows if "evaluations" in row]
    summary = {
        "pass_s": sum(times.values()),
        "certify_s": sum(t for name, t in times.items() if cells[name].must_certify),
        "ub_width_sum": sum(row["upper"] for row in budgeted),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    if exact:
        summary["nodes_per_s"] = _ratio(
            sum(row["nodes"] for row in exact),
            sum(times[row["cell"]] for row in exact),
        )
        summary["gap_sum"] = sum(
            row["upper"] - row["lower"] for row in exact
            if cells[row["cell"]].budget is not None
        )
    if heuristic:
        summary["evals_per_s"] = _ratio(
            sum(row["evaluations"] for row in heuristic),
            sum(times[row["cell"]] for row in heuristic),
        )
    summary["work_per_s"] = summary.get("nodes_per_s", summary.get("evals_per_s", 0.0))
    return summary


def _counter_totals(record: dict) -> dict[str, float]:
    """Solver counters summed over a traced pass's cells, per name and label."""
    totals: dict[str, float] = {}
    for row in record["cells"]:
        for key, value in (row.get("counters") or {}).items():
            name, _, labels = key.partition("{")
            if name not in COUNTERS or not isinstance(value, (int, float)):
                continue
            totals[name] = totals.get(name, 0) + value
            for label in filter(None, labels.rstrip("}").split(",")):
                label_key = f"{name}{{{label}}}"
                totals[label_key] = totals.get(label_key, 0) + value
    return totals


def _layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    sites = record["sites"]
    rows = record["cells"]
    counters = _counter_totals(record)
    traced_s = sum(row["time_s"] for row in rows)

    def calls(*names: str) -> int:
        return sum(sites.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names: str) -> float:
        return sum(sites.get(name, {}).get("self_s", 0.0) for name in names)

    cache_hits = sum(row["cache"]["hits"] for row in rows)
    cache_lookups = sum(row["cache"]["hits"] + row["cache"]["misses"] for row in rows)
    exact_hits = counters.get('setcover_cache{event="hit"}', 0)
    exact_lookups = exact_hits + counters.get('setcover_cache{event="miss"}', 0)
    metrics = {
        "bounds.calls": calls(*LAYERS["bounds"]),
        "bounds.s_per_call": _ratio(self_s(*LAYERS["bounds"]), calls(*LAYERS["bounds"])),
        "bounds.prune_yield": _ratio(
            counters.get('prunes{rule="lb"}', 0) + counters.get('prunes{rule="ub"}', 0),
            calls(*LAYERS["bounds"]),
        ),
        "bounds.upper_s": self_s("bounds.upper"),
        "reductions.calls": calls("reductions"),
        "reductions.forced": counters.get('reductions{kind="forced"}', 0),
        "reductions.pr2_pruned": counters.get('prunes{rule="pr2"}', 0),
        "hypergraphs.elim_calls": calls("hypergraphs"),
        "search.nodes": counters.get("nodes", 0),
        "search.prunes": counters.get("prunes", 0),
        "search.gap_sum": sum(
            row["upper"] - row["lower"] for row in rows
            if "nodes" in row and not row["certified"]
        ),
        "setcover.exact_calls": calls("setcover.exact"),
        "setcover.exact_nodes": counters.get("setcover_nodes", 0),
        "setcover.cache_hit_ratio": _ratio(exact_hits, exact_lookups),
        "setcover.greedy_calls": calls("setcover.greedy"),
        "kernels.calls": calls("kernels"),
        "kernels.cover_cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "decompositions.calls": calls("decompositions"),
        "genetic.evaluations": counters.get("evaluations", 0),
        "genetic.generations": counters.get("generations", 0),
    }
    for layer, layer_sites in LAYERS.items():
        metrics[f"{layer}.self_s"] = self_s(*layer_sites)
        metrics[f"{layer}.share"] = _ratio(self_s(*layer_sites), traced_s)
    return metrics


def _run(args: argparse.Namespace) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes, traced passes and set-up samples of one run."""
    started = time.monotonic()
    deadline = started + args.seconds
    hard_stop = started + CHILD_LIMIT_S

    def spawn(trace: int, setup_only: bool = False) -> dict:
        return _spawn(args, trace, setup_only, max(1.0, hard_stop - time.monotonic()))

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    modes = (0, 1) if args.trace else (0,)
    while True:
        round_start = time.monotonic()
        for mode in modes:
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setups.append(spawn(0, setup_only=True)["setup_scaled_s"])
            record = spawn(mode)
            (traced if mode else plain).append(record)
            setups.append(record["setup_scaled_s"])
        durations.append(time.monotonic() - round_start)
        if time.monotonic() + statistics.median(durations) > deadline:
            return plain, traced, setups


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report(args, plain, traced, setups, summary, failed, attempted) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-ups")
    for row in plain[0]["cells"]:
        if "nodes" in row:
            shown = (f"certified {row['upper']}" if row["certified"]
                     else f"[{row['lower']}, {row['upper']}]")
            work = f"{row['nodes']} nodes"
        elif "evaluations" in row:
            shown, work = f"ub {row['upper']}", f"{row['evaluations']} evaluations"
        else:
            shown, work = "no answer", ""
        print(f"  cell {row['cell']:<22} {shown:<14} {work:<17} cover cache "
              f"hits {row['cache']['hits']} misses {row['cache']['misses']}")
    for record in plain + traced:
        for row in record["cells"]:
            for problem in row["problems"]:
                print(f"  FAILED {row['cell']}: {problem}")
    print("  untraced passes (s): " + " ".join(
        _fmt(sum(row["time_s"] for row in record["cells"])) for record in plain))
    units = {"setup_s": "s", "pass_s": "s", "certify_s": "s", "nodes_per_s": "1/s",
             "gap_sum": "width", "evals_per_s": "1/s", "ub_width_sum": "width",
             "peak_rss_mb": "MB"}
    for key, unit in units.items():
        if key in summary and (key != "certify_s" or "nodes_per_s" in summary):
            print(f"  {key:<13} {_fmt(summary[key])} {unit}")
    print(f"  {'failed_share':<13} {_fmt(failed / attempted)} ({failed}/{attempted})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    try:
        plain, traced, setups = _run(args)
    except PassError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 1

    attempted = sum(len(record["cells"]) for record in plain + traced)
    failed = sum(
        1 for record in plain + traced for row in record["cells"] if row["problems"]
    )
    summary = _summarise(plain, args.workload)
    summary["setup_s"] = statistics.median(setups)
    _report(args, plain, traced, setups, summary, failed, attempted)

    if args.trace:
        layer_rows = [_layer_metrics(record) for record in traced]
        values = {key: statistics.median(row[key] for row in layer_rows)
                  for key in layer_rows[0]}
        values["obs.traced_pass_s"] = sum(_cell_times(traced).values())
        values["obs.trace_overhead"] = _ratio(values["obs.traced_pass_s"], summary["pass_s"])
        for key, value in values.items():
            print(f"  {key:<30} {_fmt(value)}")
    else:
        values = summary
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
