"""The ghw measure's shared size profile prices nodes as before.

:class:`repro.search.bb_ghw.GhwMeasure` keeps one size profile — the
restricted edge sizes ``popcount(edge & alive)``, largest first, as
prefix sums — for the current remaining set. ``lower()`` hands it to
:func:`repro.bounds.ghw_lower.tw_ksc_width_remaining` and ``finish()``
reads PR1's cover floor off it by bisection. Walked through random
eliminations and restores of random hypergraphs, both must answer what
the bound computes without a profile and what PR1 computed from a fresh
size list (:func:`tests.reference.reference_remainder_cover_floor`),
including the empty remainder, remainders with a vertex no edge holds
(the floor's ``ValueError`` becomes 0), and a restore back to a mask
whose bound is memoised while the profile slot holds another mask.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.ghw_lower import (
    remainder_cover_floor,
    remainder_profile,
    tw_ksc_width_remaining,
)
from repro.hypergraphs.hypergraph import Hypergraph
from repro.reductions.pruning import pr1_ghw
from repro.search.bb_ghw import GhwMeasure
from repro.setcover.greedy import UncoverableError, greedy_set_cover
from tests.reference import reference_remainder_cover_floor

METHODS = ("minor-min-width", "minor-gamma-r")


@st.composite
def hypergraphs(draw):
    """Up to 10 vertices in up to 8 edges of 1-4 vertices, with
    duplicate and nested edges; some vertices may lie in no edge."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertices = [f"v{i}" for i in range(n)]
    hypergraph = Hypergraph(vertices=vertices)
    edges: list[frozenset] = []
    for j in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "duplicate", "nested")))
        if kind == "fresh" or not edges:
            members = frozenset(
                draw(st.sets(st.sampled_from(vertices), min_size=1, max_size=4))
            )
        else:
            other = draw(st.sampled_from(edges))
            members = (
                other
                if kind == "duplicate"
                else frozenset(draw(st.sets(st.sampled_from(sorted(other)), min_size=1)))
            )
        edges.append(members)
        hypergraph.add_edge(f"e{j}", members)
    return hypergraph


def _outcome(call):
    try:
        return call()
    except (ValueError, UncoverableError) as exc:
        return type(exc).__name__


def _expected_finish(measure: GhwMeasure, g: int, below: int):
    """``finish`` as PR1 priced it from a fresh list of restricted sizes."""
    alive = measure.working.alive
    floor = reference_remainder_cover_floor(measure.bh, alive)
    if floor <= g or floor < below:
        return pr1_ghw(g, len(greedy_set_cover(alive, measure.bh)))[0]
    return None


def _check_state(measure: GhwMeasure, g: int, below: int) -> None:
    bh, working = measure.bh, measure.working
    alive = working.alive
    expected_h = _outcome(
        lambda: tw_ksc_width_remaining(bh, working, tw_methods=METHODS, rng=None)
    )
    assert _outcome(measure.lower) == expected_h
    assert measure.profile() == remainder_profile(bh, alive)
    assert remainder_cover_floor(bh, alive, measure.profile()) == (
        reference_remainder_cover_floor(bh, alive)
    )
    assert remainder_cover_floor(bh, alive) == reference_remainder_cover_floor(bh, alive)
    assert _outcome(lambda: measure.finish(g, below)) == _outcome(
        lambda: _expected_finish(measure, g, below)
    )


@given(hypergraphs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_lower_and_finish_match_the_unshared_paths(hypergraph, seed):
    measure = GhwMeasure(hypergraph, METHODS, use_reductions=True)
    working = measure.working
    walk = random.Random(seed)
    _check_state(measure, 0, 1)
    for _ in range(3 * hypergraph.num_vertices()):
        live = sorted(working.vertices(), key=repr)
        if live and (not working.eliminated() or walk.random() < 0.6):
            working.eliminate(walk.choice(live))
        else:
            working.restore()
        _check_state(measure, walk.randint(0, 4), walk.randint(0, 5))


def test_restore_to_a_memoised_mask_reprices_the_profile():
    hypergraph = Hypergraph(vertices=["a", "b", "c", "d", "e"])
    for name, edge in {"x": "abc", "y": "cd", "z": "de", "w": "ae"}.items():
        hypergraph.add_edge(name, set(edge))
    measure = GhwMeasure(hypergraph, METHODS, use_reductions=True)
    working = measure.working
    root = measure.lower()
    working.eliminate("a")
    child = measure.lower()
    child_floor = measure.finish(0, 1)
    working.restore()
    # The bound is memoised for the root; the profile slot held the child.
    assert measure.lower() == root
    assert measure.profile() == remainder_profile(measure.bh, working.alive)
    _check_state(measure, 0, 1)
    working.eliminate("a")
    assert (measure.lower(), measure.finish(0, 1)) == (child, child_floor)


def test_empty_remainder_prices_nothing():
    hypergraph = Hypergraph(vertices=[1, 2, 3])
    hypergraph.add_edge("e", {1, 2, 3})
    measure = GhwMeasure(hypergraph, METHODS, use_reductions=True)
    for vertex in (1, 2, 3):
        measure.working.eliminate(vertex)
    assert measure.profile() == []
    assert measure.lower() == 0
    assert measure.finish(2, 3) == 2
    _check_state(measure, 2, 3)


@pytest.mark.parametrize("g, below", [(0, 1), (1, 1), (3, 9)])
def test_uncoverable_remainder_has_floor_zero(g, below):
    # Vertex 9 lies in no edge and the edges offer 4 slots for 5
    # vertices: the floor's ValueError becomes 0, so the greedy remainder
    # cover runs and raises, as it did before.
    hypergraph = Hypergraph(vertices=[1, 2, 3, 4, 9])
    hypergraph.add_edge("e", {1, 2})
    hypergraph.add_edge("f", {3, 4})
    measure = GhwMeasure(hypergraph, METHODS, use_reductions=True)
    alive = measure.working.alive
    assert remainder_cover_floor(measure.bh, alive, measure.profile()) == 0
    assert reference_remainder_cover_floor(measure.bh, alive) == 0
    with pytest.raises(UncoverableError):
        measure.finish(g, below)
    _check_state(measure, g, below)
