"""Witness certification: no width claim is trusted without a validated
decomposition achieving it.

HyperBench validates every decomposition it reports and det-k-decomp
ships witness decompositions precisely so answers are checkable; every
solver in this library reports the elimination ordering behind its best
width, which is a complete witness — this module rebuilds the
decomposition the ordering induces and checks the claim against it.

A *strict* claim must equal its witness's width, any other may exceed
it; :meth:`repro.core.widths.Width.strict` decides which. Every tw
evaluator is deterministic, so a tw claim its witness does not achieve
is a reporting bug. The ghw heuristics cover greedily with random ties,
so their claims may exceed the exact-cover width of their own ordering;
exact covers minimise per bag, so they still certify every sound claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.widths import WIDTHS
from repro.decompositions.elimination import ordering_to_ghd
from repro.decompositions.ghd import exact_cover_width, make_complete
from repro.decompositions.tree_decomposition import DecompositionError
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph


@dataclass
class Certification:
    """Outcome of checking one width claim against its witness."""

    ok: bool
    witness_width: int | None = None
    """Width the rebuilt decomposition actually achieves."""

    reason: str | None = None
    """Why certification failed (``None`` when ``ok``)."""

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> Certification:
    return Certification(ok=False, reason=reason)


def _against_claim(
    width: int, claimed_upper: int, strict: bool, evaluators: str
) -> Certification:
    """The claim checked against the width its witness achieves."""
    if width > claimed_upper:
        return Certification(
            ok=False,
            witness_width=width,
            reason=(
                f"witness achieves width {width}, worse than the "
                f"claimed {claimed_upper}"
            ),
        )
    if strict and width != claimed_upper:
        return Certification(
            ok=False,
            witness_width=width,
            reason=(
                f"witness achieves width {width} but the solver "
                f"claimed {claimed_upper} ({evaluators} evaluators "
                "must agree exactly)"
            ),
        )
    return Certification(ok=True, witness_width=width)


def certify_tw_witness(
    graph: Graph,
    ordering: list[Vertex],
    claimed_upper: int,
    strict: bool = True,
) -> Certification:
    """Certify a treewidth upper-bound claim with its ordering witness.

    Builds the bucket-elimination tree decomposition, validates the
    three tree-decomposition conditions, and compares widths. With
    ``strict`` (the default) the witness width must equal the claim;
    otherwise it may also be smaller.
    """
    if not ordering:
        return _fail("claim carries no witness ordering")
    try:
        width = WIDTHS["tw"].decompose(graph, ordering).width()
    except (DecompositionError, ValueError, KeyError) as error:
        return _fail(f"witness does not validate: {error}")
    return _against_claim(width, claimed_upper, strict, "deterministic")


def certify_ghw_witness(
    hypergraph: Hypergraph,
    ordering: list[Vertex],
    claimed_upper: int,
    strict: bool = False,
) -> Certification:
    """Certify a ghw upper-bound claim with its ordering witness.

    Rebuilds the GHD with *exact* per-bag covers (sound against any
    greedy tie-break randomisation in the claiming solver), validates
    Definition 13, completes it per Lemma 2, re-validates, checks
    Definition 14 completeness, and checks ``exact_cover_width``
    agreement with the rebuilt covers. With ``strict`` the certified
    width must equal the claim (right for the exact searches, whose
    incumbents are evaluated with exact covers); without it the witness
    may beat the claim (heuristics cover greedily, so their claims may
    exceed the exact-cover width of their own ordering).
    """
    if not ordering:
        return _fail("claim carries no witness ordering")
    try:
        ghd = ordering_to_ghd(hypergraph, ordering, cover="exact")
        ghd.validate(hypergraph)
        complete = make_complete(ghd, hypergraph)
        complete.validate(hypergraph)
    except (DecompositionError, ValueError, KeyError) as error:
        return _fail(f"witness does not validate: {error}")
    if not complete.is_complete(hypergraph):
        return _fail("completed witness fails Definition 14 completeness")
    width = ghd.width()
    if complete.width() != width:
        return Certification(
            ok=False,
            witness_width=width,
            reason=(
                f"completion changed the width ({width} -> "
                f"{complete.width()}); Lemma 2 must preserve it"
            ),
        )
    recovered = exact_cover_width(ghd, hypergraph)
    if recovered != width:
        return Certification(
            ok=False,
            witness_width=width,
            reason=(
                f"exact_cover_width recomputes {recovered} for a GHD of "
                f"width {width}; exact covers must agree"
            ),
        )
    return _against_claim(width, claimed_upper, strict, "exact-cover")
