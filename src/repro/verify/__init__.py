"""Differential conformance testing and witness certification.

Every registered solver, on serial/parallel/portfolio/resume execution
paths, claims widths on the same instances; nothing short of
cross-checking them against each other (and certifying every claim with
a validated witness decomposition) catches a silent regression in one
path. This package is that cross-check:

* :mod:`repro.verify.generators` — seeded random instance generators
  (primal-graph families, uniform CSP hypergraphs, alpha-acyclic and
  near-acyclic families, HyperBench-style shapes);
* :mod:`repro.verify.certify` — witness certification: rebuild the
  decomposition a claim's ordering induces, ``validate`` it, complete
  it, and compare its width against the claim;
* :mod:`repro.verify.conformance` — the matrix runner: every
  ``(kind, measure)`` of the solver table, ``jobs=1`` vs ``jobs=2``,
  fresh vs kill-and-resume portfolio races, with cross-cell divergence
  checks;
* :mod:`repro.verify.shrink` — a delta-debugging shrinker that
  minimises any divergent instance and emits it as a ready-to-commit
  regression test.

Entry point: ``repro-decompose verify`` (see :mod:`repro.verify.cli`).
"""

from repro._lazy import lazy_exports
from repro.verify.certify import (
    Certification,
    certify_ghw_witness,
    certify_tw_witness,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "conformance": (
        "CellResult",
        "CellSpec",
        "ConformanceReport",
        "Divergence",
        "InstanceVerdict",
        "check_hypergraph",
        "default_matrix",
        "run_conformance",
    ),
    "generators": ("FAMILIES", "VerifyInstance", "generate_instance"),
    "shrink": ("shrink_hypergraph", "write_regression"),
})

__all__ = [
    "Certification",
    "CellResult",
    "CellSpec",
    "ConformanceReport",
    "Divergence",
    "FAMILIES",
    "InstanceVerdict",
    "VerifyInstance",
    "certify_ghw_witness",
    "certify_tw_witness",
    "check_hypergraph",
    "default_matrix",
    "generate_instance",
    "run_conformance",
    "shrink_hypergraph",
    "write_regression",
]
