"""The ``repro-decompose verify`` subcommand.

Runs the differential conformance matrix over seeded generated
instances, certifies every reported width against a validated witness
decomposition, prints a verdict per instance, and — when divergences
are found — delta-debugs each one down to a minimal instance and emits
it as a ready-to-commit regression test.

Exit codes: 0 when every cell certifies and no conformance relation is
violated, 1 on any divergence, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.widths import WIDTHS
from repro.verify.conformance import (
    CellSpec,
    ConformanceReport,
    Divergence,
    InstanceVerdict,
    check_hypergraph,
    default_matrix,
    run_conformance,
)
from repro.verify.generators import FAMILIES, VerifyInstance
from repro.verify.shrink import shrink_hypergraph, write_regression


def build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-decompose verify",
        description=(
            "Differential conformance: run every registered solver across "
            "execution modes on seeded random instances, "
            "certify every claimed width with a validated witness, and "
            "shrink any divergence to a minimal regression test."
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=20,
        metavar="N",
        help="number of generated instances (seeds 0..N-1)",
    )
    parser.add_argument(
        "--families",
        default=",".join(FAMILIES),
        metavar="LIST",
        help=f"comma-separated instance families (default: all of "
        f"{','.join(FAMILIES)})",
    )
    parser.add_argument(
        "--measures",
        default=",".join(WIDTHS),
        metavar="LIST",
        help="width measures to cross-check (tw, ghw or both)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=10.0,
        metavar="S",
        help="per-cell solver budget in seconds",
    )
    parser.add_argument(
        "--no-portfolio",
        action="store_true",
        help="skip the fresh/killed/resumed portfolio cells",
    )
    parser.add_argument(
        "--shrink-dir",
        default=None,
        metavar="DIR",
        help=(
            "minimise each divergent instance and write a pytest "
            "regression file per divergence kind into DIR"
        ),
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the full conformance report as JSON",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="only print the final summary line",
    )
    return parser


def _shrink_and_emit(
    verdict: InstanceVerdict,
    divergence: Divergence,
    matrix: list[CellSpec],
    time_limit: float,
    directory: str,
) -> str:
    """Minimise the instance behind one divergence, emit the regression.

    The interestingness predicate is "the matrix (restricted to the
    divergence's measure) still produces a divergence of the same kind"
    — so the shrinker cannot wander off onto an unrelated failure.
    """
    instance = verdict.instance
    measure_matrix = [c for c in matrix if c.measure == divergence.measure]
    use_portfolio = divergence.kind.startswith("resume")

    def predicate(hypergraph) -> bool:
        candidate = VerifyInstance(
            name=instance.name,
            family=instance.family,
            seed=instance.seed,
            hypergraph=hypergraph,
        )
        shrunk_verdict = check_hypergraph(
            candidate,
            matrix=measure_matrix,
            time_limit=time_limit,
            portfolio=use_portfolio,
        )
        return any(
            d.kind == divergence.kind for d in shrunk_verdict.divergences
        )

    shrunk = shrink_hypergraph(instance.hypergraph, predicate)
    path = write_regression(
        shrunk, divergence, directory, portfolio=use_portfolio
    )
    return str(path)


def main_verify(argv: list[str]) -> int:
    args = build_verify_parser().parse_args(argv)
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    families = tuple(
        token.strip() for token in args.families.split(",") if token.strip()
    )
    measures = tuple(
        token.strip() for token in args.measures.split(",") if token.strip()
    )
    unknown = [f for f in families if f not in FAMILIES]
    if unknown or not families:
        print(
            f"error: unknown families {unknown or families}; choose from "
            f"{list(FAMILIES)}",
            file=sys.stderr,
        )
        return 2
    bad_measures = [m for m in measures if m not in WIDTHS]
    if bad_measures or not measures:
        print(
            f"error: unknown measures {bad_measures or measures}; choose "
            f"from {list(WIDTHS)}",
            file=sys.stderr,
        )
        return 2

    matrix = default_matrix(measures=measures)

    def progress(verdict: InstanceVerdict) -> None:
        if args.quiet:
            return
        instance = verdict.instance
        certified = sum(1 for c in verdict.cells if c.certified)
        status = "ok" if verdict.ok else "DIVERGES"
        print(
            f"{instance.name:<28} |V|={instance.hypergraph.num_vertices():<3}"
            f" |H|={instance.hypergraph.num_edges():<3} "
            f"cells={len(verdict.cells)} certified={certified} {status}"
        )
        for divergence in verdict.divergences:
            print(f"  !! {divergence}")

    report: ConformanceReport = run_conformance(
        seeds=args.seeds,
        families=families,
        matrix=matrix,
        time_limit=args.time_limit,
        portfolio=not args.no_portfolio,
        progress=progress,
    )

    if args.shrink_dir and report.divergences:
        emitted: set[tuple[str, str]] = set()
        for verdict in report.verdicts:
            for divergence in verdict.divergences:
                key = (divergence.measure, divergence.kind)
                if key in emitted:
                    continue  # one minimal regression per relation kind
                emitted.add(key)
                try:
                    path = _shrink_and_emit(
                        verdict,
                        divergence,
                        matrix,
                        args.time_limit,
                        args.shrink_dir,
                    )
                    print(f"shrunk {divergence.kind} -> {path}")
                except ValueError as exc:
                    print(
                        f"could not shrink {divergence.kind}: {exc}",
                        file=sys.stderr,
                    )

    if args.json_out:
        try:
            with open(args.json_out, "w") as handle:
                json.dump(report.to_dict(), handle, indent=2)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2

    print(report.summary())
    return 0 if report.ok else 1
