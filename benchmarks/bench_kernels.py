"""Benchmark the bitset kernel + shared cover cache against the
pure-Python GA fitness evaluation of the test oracle.

Three workload phases per instance, all replaying the exact populations
a GA-ghw run sees:

* **random** — generation-0 style populations of uniformly random
  orderings (every bag is new, so this measures the raw kernel);
* **converged** — late-run style populations built from an elite
  min-fill ordering plus small ISM mutations (bags repeat massively
  across individuals and generations, so this also measures the shared
  cover cache);
* **random_ties** — the random populations again, on GA-ghw's default
  path: random greedy tie-breaks from a seeded ``rng``, uncached.

Both sides evaluate the *same* populations. The "python" side is the
dict-of-sets bucket elimination and greedy loop kept as the oracle in
``tests/reference.py`` (every library evaluator runs on the kernel).
The first two phases break greedy ties deterministically
(``rng=None``); in **random_ties** each side draws from its own
``random.Random`` with the same seed, so the widths agree only if both
loops make the same draws. Widths must match the bitset kernel exactly
in every phase — the bench asserts it.

Usage::

    python benchmarks/bench_kernels.py                   # full run
    python benchmarks/bench_kernels.py --smoke           # CI-sized run
    python benchmarks/bench_kernels.py --validate BENCH_kernels.json

The JSON artifact (``BENCH_kernels.json``) is schema-checked by
``--validate`` (structure only — no perf gating in CI).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

#: The repository root, so the oracle in ``tests/reference.py`` imports.
ROOT = Path(__file__).resolve().parents[1]

SCHEMA_VERSION = 2

#: Seed of both random sources in the ``random_ties`` phase.
TIE_SEED = 0

#: The workload phases of every instance, in run order.
PHASES = ("random", "converged", "random_ties")

#: (instance, population size, rounds) per mode. Rounds mimic GA
#: generations: each round is one population evaluated in full.
FULL_WORKLOADS = [("adder_30", 24, 4), ("grid2d_6", 24, 4), ("b08", 24, 4)]
SMOKE_WORKLOADS = [("adder_10", 6, 2), ("grid2d_3", 6, 2)]

#: Acceptance floor for the full run (GA fitness evaluation speedup).
SPEEDUP_FLOOR = 3.0


def _random_populations(vertices, size, rounds, rng):
    populations = []
    for _ in range(rounds):
        population = []
        for _ in range(size):
            individual = list(vertices)
            rng.shuffle(individual)
            population.append(individual)
        populations.append(population)
    return populations


def _converged_populations(hypergraph, size, rounds, rng):
    """Elite + ISM-mutation populations, like a converged GA-ghw run."""
    from repro.bounds.upper import min_fill_ordering
    from repro.genetic.mutation import get_mutation

    elite = min_fill_ordering(hypergraph.primal_graph(), rng)
    ism = get_mutation("ISM")
    populations = []
    for _ in range(rounds):
        population = [list(elite)]
        while len(population) < size:
            individual = list(elite)
            for _ in range(rng.randint(1, 3)):
                individual = ism(individual, rng)
            population.append(individual)
        populations.append(population)
    return populations


def _time_evaluator(evaluate, populations):
    """(seconds, widths) for evaluating every population in order."""
    widths = []
    started = time.perf_counter()
    for population in populations:
        for individual in population:
            widths.append(evaluate(individual))
    return time.perf_counter() - started, widths


def bench_instance(name, size, rounds):
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from repro.genetic.ga_ghw import make_ghw_evaluator
    from repro.instances.registry import instance as registry_instance
    from repro.kernels.cache import cover_cache
    from repro.kernels.evaluators import make_bit_ghw_evaluator
    from tests.reference import make_reference_ghw_evaluator

    hypergraph = registry_instance(name)
    vertices = sorted(hypergraph.vertices(), key=repr)
    rng = random.Random(0)
    random_orderings = _random_populations(vertices, size, rounds, rng)
    workloads = {
        "random": random_orderings,
        "converged": _converged_populations(hypergraph, size, rounds, rng),
        "random_ties": random_orderings,
    }

    cache = cover_cache()
    phases = []
    python_total = bitset_total = 0.0
    for phase, populations in workloads.items():
        if phase == "random_ties":
            python_rng = random.Random(TIE_SEED)
            bitset_rng = random.Random(TIE_SEED)
            reference = make_reference_ghw_evaluator(hypergraph, rng=python_rng)
            kernel = make_ghw_evaluator(hypergraph, rng=bitset_rng)
        else:
            python_rng = bitset_rng = None
            reference = make_reference_ghw_evaluator(hypergraph)
            kernel = make_bit_ghw_evaluator(hypergraph)
        python_s, python_widths = _time_evaluator(reference, populations)
        cache.clear()
        bitset_s, bitset_widths = _time_evaluator(kernel, populations)
        if python_widths != bitset_widths:
            raise AssertionError(
                f"{name}/{phase}: bitset widths diverge from python widths"
            )
        if python_rng is not None and (
            python_rng.getstate() != bitset_rng.getstate()
        ):
            raise AssertionError(
                f"{name}/{phase}: bitset tie draws diverge from python draws"
            )
        python_total += python_s
        bitset_total += bitset_s
        phases.append(
            {
                "phase": phase,
                "evaluations": sum(len(p) for p in populations),
                "python_s": round(python_s, 4),
                "bitset_s": round(bitset_s, 4),
                "speedup": round(python_s / bitset_s, 2) if bitset_s else 0.0,
                "widths_equal": True,
                "cache": cache.stats(),
            }
        )
    return {
        "instance": name,
        "vertices": hypergraph.num_vertices(),
        "edges": hypergraph.num_edges(),
        "population": size,
        "rounds": rounds,
        "phases": phases,
        "python_s": round(python_total, 4),
        "bitset_s": round(bitset_total, 4),
        "speedup": round(python_total / bitset_total, 2)
        if bitset_total
        else 0.0,
    }


def run(smoke: bool) -> dict:
    workloads = SMOKE_WORKLOADS if smoke else FULL_WORKLOADS
    results = [bench_instance(*workload) for workload in workloads]
    speedups = [r["speedup"] for r in results]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "results": results,
        "summary": {
            "instances": len(results),
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "overall_speedup": round(
                sum(r["python_s"] for r in results)
                / sum(r["bitset_s"] for r in results),
                2,
            ),
        },
    }
    return payload


def validate(payload: dict) -> list[str]:
    """Structural schema check for BENCH_kernels.json; [] when valid."""
    errors: list[str] = []

    def need(mapping, key, kind, where):
        if key not in mapping:
            errors.append(f"{where}: missing key {key!r}")
            return None
        value = mapping[key]
        if not isinstance(value, kind):
            errors.append(
                f"{where}.{key}: expected {kind}, got {type(value).__name__}"
            )
            return None
        return value

    if not isinstance(payload, dict):
        return ["payload is not an object"]
    version = need(payload, "schema_version", int, "payload")
    if version is not None and version != SCHEMA_VERSION:
        errors.append(
            f"payload.schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    mode = need(payload, "mode", str, "payload")
    if mode is not None and mode not in ("full", "smoke"):
        errors.append(f"payload.mode: unknown mode {mode!r}")
    results = need(payload, "results", list, "payload")
    if results is not None:
        if not results:
            errors.append("payload.results: empty")
        for i, result in enumerate(results):
            where = f"results[{i}]"
            if not isinstance(result, dict):
                errors.append(f"{where}: not an object")
                continue
            need(result, "instance", str, where)
            need(result, "vertices", int, where)
            need(result, "edges", int, where)
            need(result, "python_s", (int, float), where)
            need(result, "bitset_s", (int, float), where)
            need(result, "speedup", (int, float), where)
            phases = need(result, "phases", list, where)
            for j, phase in enumerate(phases or []):
                pwhere = f"{where}.phases[{j}]"
                if not isinstance(phase, dict):
                    errors.append(f"{pwhere}: not an object")
                    continue
                kind = need(phase, "phase", str, pwhere)
                if kind is not None and kind not in PHASES:
                    errors.append(f"{pwhere}.phase: unknown phase {kind!r}")
                need(phase, "evaluations", int, pwhere)
                need(phase, "python_s", (int, float), pwhere)
                need(phase, "bitset_s", (int, float), pwhere)
                need(phase, "speedup", (int, float), pwhere)
                if phase.get("widths_equal") is not True:
                    errors.append(f"{pwhere}.widths_equal: must be true")
                cache = need(phase, "cache", dict, pwhere)
                for stat in ("hits", "misses", "evictions", "size"):
                    if cache is not None:
                        need(cache, stat, int, f"{pwhere}.cache")
    summary = need(payload, "summary", dict, "payload")
    if summary is not None:
        need(summary, "instances", int, "summary")
        need(summary, "min_speedup", (int, float), "summary")
        need(summary, "overall_speedup", (int, float), "summary")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny instances for CI"
    )
    parser.add_argument("--out", default="BENCH_kernels.json")
    parser.add_argument(
        "--validate",
        metavar="FILE",
        default=None,
        help="schema-check an existing artifact instead of benchmarking",
    )
    args = parser.parse_args(argv)

    if args.validate is not None:
        with open(args.validate) as handle:
            payload = json.load(handle)
        errors = validate(payload)
        if errors:
            for error in errors:
                print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema ok ({payload['mode']} mode, "
              f"{payload['summary']['instances']} instances)")
        return 0

    sys.path.insert(0, "src")
    payload = run(smoke=args.smoke)
    print(f"{'instance':<10} {'phase':<11} {'evals':>6} "
          f"{'python_s':>9} {'bitset_s':>9} {'speedup':>8}")
    for result in payload["results"]:
        for phase in result["phases"]:
            print(
                f"{result['instance']:<10} {phase['phase']:<11} "
                f"{phase['evaluations']:>6} {phase['python_s']:>9.3f} "
                f"{phase['bitset_s']:>9.3f} {phase['speedup']:>7.1f}x"
            )
        print(
            f"{result['instance']:<10} {'total':<11} {'':>6} "
            f"{result['python_s']:>9.3f} {result['bitset_s']:>9.3f} "
            f"{result['speedup']:>7.1f}x"
        )
    print(f"overall speedup: {payload['summary']['overall_speedup']}x "
          f"(min per-instance: {payload['summary']['min_speedup']}x)")
    errors = validate(payload)
    if errors:  # pragma: no cover - self-check
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if not args.smoke and payload["summary"]["min_speedup"] < SPEEDUP_FLOOR:
        print(
            f"warning: min per-instance speedup below {SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
