"""One set-cover front end: every form of a cover call meets the same loop.

Greedy covers take a vertex set with either edge form (a ``name ->
vertices`` mapping or an interned :class:`BitHypergraph`) and a bag mask
with a :class:`BitHypergraph`; exact covers take either target form
through :class:`ExactSetCoverSolver` over either edge form. All of them
give the same cover, and a vertex no edge holds raises the same
:class:`UncoverableError` text. Exact covers reach the kernel only
through the solver.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.kernels.bithypergraph import BitHypergraph
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import UncoverableError, greedy_set_cover

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

EDGES = {"d": {4}, "a": {1, 2}, "c": {3, 4}, "b": {2, 3}, "e": {1, 2, 3}}


def greedy(target, edges):
    return greedy_set_cover(target, edges)


def exact(target, edges):
    solver = ExactSetCoverSolver(edges)
    return solver.bh.names_of(solver.cover(target))


@pytest.mark.parametrize("cover", [greedy, exact])
def test_target_and_edge_forms_give_one_cover(cover):
    bh = BitHypergraph.from_edges(EDGES)
    target = {1, 2, 3, 4}
    expected = cover(target, EDGES)
    assert cover(target, bh) == expected
    assert cover(iter(sorted(target)), bh) == expected
    assert cover(bh.mask_of(target), bh) == expected
    if cover is exact:
        # A solver over the mapping reads masks in its own interning.
        assert cover(bh.mask_of(target), EDGES) == expected


def test_seeded_greedy_forms_draw_alike():
    bh = BitHypergraph.from_edges(EDGES)
    for seed in range(10):
        named = greedy_set_cover({1, 2, 3, 4}, EDGES, random.Random(seed))
        assert greedy_set_cover({1, 2, 3, 4}, bh, random.Random(seed)) == named


@pytest.mark.parametrize("cover", [greedy, exact])
@pytest.mark.parametrize("form", ["mapping", "bithypergraph"])
def test_unknown_vertex_raises_one_message(cover, form):
    edges = EDGES if form == "mapping" else BitHypergraph.from_edges(EDGES)
    with pytest.raises(UncoverableError) as caught:
        cover({1, 9, "x"}, edges)
    assert str(caught.value) == "vertices [\"'x'\", '9'] appear in no hyperedge"


#: The exact-cover kernels, and the modules that may name them.
KERNELS = {"exact_cover_mask", "windowed_cover_mask"}
ALLOWED = {"setcover/exact.py", "kernels/cover.py"}


def test_only_the_solver_reaches_the_exact_kernels():
    """Outside the kernel module itself, only ``setcover/exact.py`` calls
    (or otherwise names) the exact-cover kernels; imports and the
    ``kernels`` package's re-exports do not count."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if name in KERNELS:
                offenders.append(f"{relative}:{node.lineno}: {name}")
    assert not offenders, offenders
