"""One benchmark pass in a fresh interpreter.

Started by ``perfbench/run.py``; prints one JSON record as its last line
of standard output. A pass imports ``repro``, builds the workload's
instances, then runs every cell once: the process-wide cover cache is
cleared before each cell and its statistics recorded after, the call is
timed, and the answer and its witness ordering are checked outside the
timed region.

Every timing is reported twice: as measured and scaled to the reference
host (``setup_scaled_s``, ``scaled_s``) by the host slowness that
``perfbench/yardstick.py`` measures right after set-up and after every
cell; a cell is scaled by the mean of the readings on either side of it.

With ``--trace 1`` the pass also enters ``repro.obs.instrument()`` around
each cell, wraps the layers listed in ``perfbench/layers.py`` and
harvests the solvers' own counters from ``result.metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned",
        type=float,
        required=True,
        help="time.monotonic() in the parent just before this process started",
    )
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = _parse()
    import importlib
    from contextlib import nullcontext

    from cells import GA_POPULATION, WORKLOADS, check
    from yardstick import slowness

    api = importlib.import_module("repro.core.api")
    engine = importlib.import_module("repro.genetic.engine")
    ga_ghw_module = importlib.import_module("repro.genetic.ga_ghw")
    ga_tw_module = importlib.import_module("repro.genetic.ga_tw")
    cache_module = importlib.import_module("repro.kernels.cache")
    registry = importlib.import_module("repro.instances.registry")
    certify = importlib.import_module("repro.verify.certify")
    obs = importlib.import_module("repro.obs")
    hypergraph_type = importlib.import_module("repro.hypergraphs.hypergraph").Hypergraph

    cells = WORKLOADS[args.workload]
    instances = {}
    primal_graphs = {}
    for cell in cells:
        if cell.instance not in instances:
            built = registry.instance(cell.instance)
            instances[cell.instance] = built
            primal_graphs[cell.instance] = (
                built.primal_graph() if isinstance(built, hypergraph_type) else built
            )
    setup_s = time.monotonic() - args.spawned
    slowness_before = slowness()
    setup = {"setup_s": setup_s, "setup_scaled_s": setup_s / slowness_before}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    entries = {
        ("tw", "exact"): api.treewidth,
        ("ghw", "exact"): api.generalized_hypertree_width,
        ("tw", "ga"): ga_tw_module.ga_treewidth,
        ("ghw", "ga"): ga_ghw_module.ga_ghw,
    }
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        entries = {
            key: tracer.wrap("genetic" if key[1] == "ga" else "search", entry)
            for key, entry in entries.items()
        }

    cover_cache = cache_module.cover_cache()
    records = []
    for cell in cells:
        problem = instances[cell.instance]
        cover_cache.clear()
        record = {"cell": cell.name, "problems": []}
        with obs.instrument() if tracer else nullcontext():
            if tracer:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                if cell.heuristic:
                    result = entries[(cell.measure, "ga")](
                        problem,
                        parameters=engine.GAParameters(
                            population_size=GA_POPULATION,
                            max_iterations=cell.budget,
                        ),
                        seed=args.seed,
                    )
                else:
                    result = entries[(cell.measure, "exact")](
                        problem,
                        algorithm=cell.algorithm,
                        node_limit=cell.budget,
                        seed=args.seed,
                    )
            except Exception as error:  # counted as a failed cell
                result = None
                record["problems"].append(f"raised {error!r}")
            record["time_s"] = time.perf_counter() - start
            if tracer:
                tracer.enabled = False
        record["cache"] = cover_cache.stats()
        slowness_after = slowness()
        record["scaled_s"] = record["time_s"] / ((slowness_before + slowness_after) / 2)
        slowness_before = slowness_after
        if result is not None:
            if cell.heuristic:
                lower, upper = 0, result.best_fitness
                certified = False
                ordering = result.best_individual
                record["evaluations"] = result.evaluations
                record["generations"] = result.generations
            else:
                lower, upper = result.lower_bound, result.upper_bound
                certified = result.optimal
                ordering = result.ordering
                record["nodes"] = result.nodes_expanded
            record.update(lower=lower, upper=upper, certified=certified)
            record["counters"] = result.metrics
            record["problems"] += check(cell, lower, upper, certified)
            if cell.measure == "tw":
                witness = certify.certify_tw_witness(
                    primal_graphs[cell.instance], list(ordering), upper
                )
            else:
                witness = certify.certify_ghw_witness(
                    problem, list(ordering), upper, strict=certified
                )
            if not witness.ok:
                record["problems"].append(f"witness check: {witness.reason}")
        records.append(record)

    output = {
        **setup,
        "peak_rss_mb": obs.peak_rss_kb() / 1024.0,
        "cells": records,
    }
    if tracer:
        tracer.check_required(args.workload)
        output["sites"] = tracer.snapshot()
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
