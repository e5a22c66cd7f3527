"""Command-line interface: ``repro-decompose``.

Examples
--------
Exact treewidth of a generated instance::

    repro-decompose --instance queen5_5 --measure tw --algorithm astar

ghw upper bound of a hypergraph file with the genetic algorithm::

    repro-decompose --file instance.hg --measure ghw --algorithm ga

Race the anytime portfolio (shared bounds, early stop on lb == ub)::

    repro-decompose portfolio --instance cycle_6 --measure ghw \\
        --strategies bb,ga,sa,tabu --time-limit 10

Differentially test the whole solver matrix on seeded random instances,
certifying every claimed width against a validated witness::

    repro-decompose verify --seeds 50

The tool prints the result line the thesis tables use: instance, |V|,
|E| or |H|, lb, ub, value, nodes, time.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext

from repro import obs
from repro.core.solvers import kinds, lookup
from repro.core.widths import WIDTHS
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.registry import instance as registry_instance
from repro.obs.report import RunReport, append_jsonl
from repro.portfolio.strategies import StrategySpec
from repro.portfolio.workers import run_strategy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-decompose",
        description=(
            "Tree and generalized hypertree decomposition widths "
            "(exact and heuristic)."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--instance",
        help="named generated instance (queen5_5, myciel4, adder_10, ...)",
    )
    source.add_argument(
        "--file", help="path to a DIMACS .col graph or a hypergraph edge list"
    )
    parser.add_argument(
        "--measure",
        choices=(*WIDTHS, "hw"),
        default="tw",
        help="treewidth, generalized hypertree width or hypertree width",
    )
    parser.add_argument(
        "--algorithm",
        default="astar",
        help=(
            " | ".join(kinds())
            + " (astar and bb are exact, the rest give upper bounds; "
            "saiga is ghw only, the ordering heuristics tw only)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "write the decomposition here (.td format for tw, the ghd "
            "format for ghw/hw)"
        ),
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, help="seconds"
    )
    parser.add_argument(
        "--node-limit", type=int, default=None, help="search node budget"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate GA/SAIGA populations on N worker processes",
    )
    parser.add_argument(
        "--cover-cache-size",
        type=int,
        default=None,
        metavar="M",
        help="resize the process-wide bag-cover cache to M entries",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metric counters to stderr",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the run's span tree (phase timings) to stderr",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE.jsonl",
        help="append a structured RunReport for this run as a JSON line",
    )
    return parser


def build_portfolio_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-decompose portfolio",
        description=(
            "Race several strategies on one instance with shared bounds, "
            "a deadline, and checkpoint/resume."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--instance",
        help="named generated instance (queen5_5, myciel4, adder_10, ...)",
    )
    source.add_argument(
        "--file",
        help="path to a DIMACS .col graph, a HyperBench .hg file, or a "
        "hypergraph edge list",
    )
    parser.add_argument(
        "--measure", choices=tuple(WIDTHS), default="tw",
        help="width measure the portfolio races on",
    )
    parser.add_argument(
        "--strategies",
        default=None,
        metavar="KINDS",
        help=(
            "comma-separated strategy kinds (bb, astar, ga, saiga, sa, "
            "tabu); repeats allowed and get distinct seeds. Default: "
            "bb,ga,sa,tabu"
        ),
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, help="shared deadline in seconds"
    )
    parser.add_argument(
        "--mode",
        choices=("process", "inline"),
        default="process",
        help="worker processes (true race) or sequential time slices",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="population-evaluation processes per GA/SAIGA worker",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="periodically snapshot worker state here (enables --resume)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="minimum seconds between checkpoint writes per worker",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a previous race from --checkpoint-dir",
    )
    parser.add_argument(
        "--cover-cache-size",
        type=int,
        default=None,
        metavar="M",
        help="resize the process-wide bag-cover cache to M entries",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the scheduler's metric counters to stderr",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the scheduler's span tree to stderr",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE.jsonl",
        help="append the portfolio RunReport (nested worker reports) as JSON",
    )
    return parser


def main_portfolio(argv: list[str]) -> int:
    """The ``portfolio`` subcommand: race strategies with shared bounds."""
    from repro.portfolio import (
        PortfolioSpec,
        parse_strategies,
        portfolio_report,
        resume_portfolio,
        run_portfolio,
    )

    args = build_portfolio_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    loaded = _start(args)
    if loaded is None:
        return 2
    label = args.instance or args.file
    width = WIDTHS[args.measure]
    try:
        instance = width.prepare(loaded)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    telemetry = args.metrics or args.trace or args.telemetry_out is not None
    context = obs.instrument() if telemetry else nullcontext(obs.DISABLED)
    try:
        with context as ins:
            if args.resume:
                result = resume_portfolio(
                    loaded,
                    args.checkpoint_dir,
                    time_limit=args.time_limit,
                    mode=args.mode,
                )
            else:
                strategies = parse_strategies(
                    args.strategies or "bb,ga,sa,tabu",
                    args.measure,
                    seed=args.seed,
                )
                for strategy in strategies:
                    strategy.jobs = args.jobs
                spec = PortfolioSpec(
                    measure=args.measure,
                    strategies=strategies,
                    time_limit=args.time_limit,
                    mode=args.mode,
                    seed=args.seed,
                    instance_name=label,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_interval=args.checkpoint_interval,
                )
                result = run_portfolio(loaded, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{label}  {_size(loaded)}  {result.summary()}")
    for worker in result.workers:
        lb = "-" if worker.lower_bound is None else worker.lower_bound
        ub = "-" if worker.upper_bound is None else worker.upper_bound
        line = (
            f"  {worker.name:<10} {worker.status:<12} "
            f"lb={lb} ub={ub} {worker.elapsed:.2f}s"
        )
        if worker.error:
            line += f"  ({worker.error})"
        print(line)

    if telemetry:
        report = portfolio_report(
            ins,
            result,
            instance_name=label,
            certified=width.certified(
                instance,
                result.ordering,
                result.upper_bound,
                strict=width.strict(exact=False),
            ),
            meta={"seed": args.seed, "jobs": args.jobs, "mode": args.mode},
        )
        return _emit(args, ins, report)
    return 0


def _start(args: argparse.Namespace) -> Graph | Hypergraph | None:
    """Resize the cover cache and load the instance; ``None`` once an
    error is printed."""
    try:
        if args.cover_cache_size is not None:
            from repro.kernels.cache import configure_cover_cache

            configure_cover_cache(args.cover_cache_size)
        return _load(args)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _size(loaded: Graph | Hypergraph) -> str:
    edges = "H" if isinstance(loaded, Hypergraph) else "E"
    return f"|V|={loaded.num_vertices()} |{edges}|={loaded.num_edges()}"


def _emit(args: argparse.Namespace, ins, report: RunReport) -> int:
    """Print the run's metrics and spans as asked and append its report;
    the exit code."""
    from repro.obs.render import render_metrics, render_spans

    if args.metrics:
        print("-- metrics --", file=sys.stderr)
        print(render_metrics(ins.metrics.snapshot()), file=sys.stderr)
    if args.trace:
        print("-- trace --", file=sys.stderr)
        print(render_spans(ins.tracer.tree()), file=sys.stderr)
    if args.telemetry_out:
        try:
            append_jsonl(args.telemetry_out, report)
        except OSError as exc:
            print(f"error: cannot write telemetry: {exc}", file=sys.stderr)
            return 2
    return 0


def _load(args: argparse.Namespace) -> Graph | Hypergraph:
    if args.instance:
        return registry_instance(args.instance)
    if args.file.endswith(".hg"):
        from repro.instances.hyperbench import read_hg

        return read_hg(args.file)
    from repro.hypergraphs.io import read_dimacs, read_hypergraph

    text = open(args.file).readline()
    if text.startswith(("c", "p")):
        return read_dimacs(args.file)
    return read_hypergraph(args.file)


def _summary(result, measure: str) -> str:
    """The result line: SearchResult's for exact runs, ``ub`` otherwise."""
    if result.lower_bound is None:
        return f"{measure} <= {result.upper_bound} ({result.kind})"
    optimal = result.status == "optimal"
    shown = (
        result.upper_bound
        if optimal
        else f"[{result.lower_bound}, {result.upper_bound}]"
    )
    return (
        f"{result.detail['algorithm']}: width={shown} ({result.status}), "
        f"nodes={result.detail['nodes']}, time={result.elapsed:.2f}s"
    )


def _run_measure(
    args: argparse.Namespace,
    loaded: Graph | Hypergraph,
    label: str,
    size: str,
) -> tuple[int, dict]:
    """Run the requested width computation; return (exit code, fields)."""
    if args.measure == "hw":
        if not isinstance(loaded, Hypergraph):
            print("error: hw needs a hypergraph instance", file=sys.stderr)
            return 2, {}
        from repro.decompositions.hypertree import hypertree_width
        from repro.decompositions.io import write_ghd

        k, decomposition = hypertree_width(loaded)
        print(f"{label}  {size}  hw = {k}")
        if args.output:
            write_ghd(decomposition.ghd, args.output)
            print(f"wrote {args.output}")
        return 0, {
            "status": "optimal",
            "value": k,
            "lower_bound": k,
            "upper_bound": k,
        }
    width = WIDTHS[args.measure]
    try:
        instance = width.prepare(loaded)
        solver = lookup(args.algorithm, args.measure)
        width.check(instance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, {}
    spec = StrategySpec(
        name=args.algorithm,
        kind=args.algorithm,
        seed=args.seed,
        jobs=args.jobs,
        options=solver.options(node_limit=args.node_limit),
    )
    result = run_strategy(
        spec, instance, args.measure, time_limit=args.time_limit
    )
    print(f"{label}  {size}  {_summary(result, args.measure)}")
    fields = {
        "status": result.status,
        "value": result.upper_bound if result.status == "optimal" else None,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "certified": width.certified(
            instance,
            result.ordering,
            result.upper_bound,
            strict=width.strict(solver.exact),
        ),
    }
    if args.output:
        if not result.ordering:
            print("error: the instance has no vertices", file=sys.stderr)
            return 2, fields
        width.write(width.decompose(instance, result.ordering), args.output)
        print(f"wrote {args.output}")
    return 0, fields


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "portfolio":
        return main_portfolio(argv[1:])
    if argv and argv[0] == "verify":
        from repro.verify.cli import main_verify

        return main_verify(argv[1:])
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    loaded = _start(args)
    if loaded is None:
        return 2

    label = args.instance or args.file

    telemetry = args.metrics or args.trace or args.telemetry_out is not None
    context = obs.instrument() if telemetry else nullcontext(obs.DISABLED)
    started = time.monotonic()
    with context as ins:
        code, fields = _run_measure(args, loaded, label, _size(loaded))
    if code != 0:
        return code

    if telemetry:
        from repro.kernels.cache import cover_cache

        cache = cover_cache()
        report = RunReport.capture(
            ins,
            instance=label,
            solver=args.algorithm if args.measure != "hw" else "hw",
            measure=args.measure,
            elapsed_s=time.monotonic() - started,
            meta={
                "seed": args.seed,
                "jobs": args.jobs,
                "cover_cache_size": cache.maxsize,
                "cover_cache": cache.stats(),
            },
            **fields,
        )
        return _emit(args, ins, report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
