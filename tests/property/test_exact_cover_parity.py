"""The mask-native exact cover agrees with the frozenset oracle.

:class:`repro.setcover.exact.ExactSetCoverSolver` answers through the
bitmask branch and bound of :mod:`repro.kernels.cover`; the frozenset
search it replaced is :class:`tests.reference.ReferenceExactSetCoverSolver`.
Covers are optimal, so sizes must agree exactly (the chosen names may
differ only between equally small covers), on vertex-iterable and on
bag-mask input, with duplicate, nested and empty edges, on labels whose
``repr`` order differs from their natural order, and with the same
error text for targets that cannot be covered.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bithypergraph import BitHypergraph
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import UncoverableError
from tests.reference import ReferenceExactSetCoverSolver

LABELS = {
    # ints >= 10 whose repr order differs from their value order (109 < 21)
    "int": lambda i: 10 + 11 * i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"x{i}"),
}


@st.composite
def families(draw):
    """``(vertices, name -> edge)``: some vertices may lie in no edge."""
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    n = draw(st.integers(min_value=1, max_value=10))
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    edges: dict = {}
    for j in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(st.sampled_from(("fresh", "fresh", "duplicate", "nested", "empty")))
        if kind == "empty":
            members = frozenset()
        elif kind == "fresh" or not edges:
            members = frozenset(draw(st.sets(st.sampled_from(vertices), max_size=5)))
        else:
            other = edges[draw(st.sampled_from(sorted(edges)))]
            if kind == "duplicate" or not other:
                members = other
            else:
                members = frozenset(
                    draw(st.sets(st.sampled_from(sorted(other, key=repr))))
                )
        edges[f"e{draw(st.integers(0, 99))}_{j}"] = members
    # Insertion order differs from name order.
    names = draw(st.permutations(sorted(edges)))
    return vertices, {name: edges[name] for name in names}


def _assert_valid_cover(cover, target, edges):
    covered = set()
    for name in cover:
        covered |= edges[name]
    assert set(target) <= covered


def _outcome(solve, target):
    try:
        return len(solve(target)), None
    except UncoverableError as exc:
        return None, str(exc)


@given(families(), st.data())
@settings(max_examples=300, deadline=None)
def test_mapping_input_matches_oracle(family, data):
    vertices, edges = family
    target = data.draw(st.sets(st.sampled_from(vertices + ["unknown"])))
    solver = ExactSetCoverSolver(edges)
    oracle = ReferenceExactSetCoverSolver(edges)
    size, error = _outcome(solver.cover, target)
    assert (size, error) == _outcome(oracle.cover, target)
    if error is None:
        _assert_valid_cover(solver.cover(target), target, edges)
        assert solver.cover_size(target) == size


@given(families(), st.data())
@settings(max_examples=300, deadline=None)
def test_mask_input_matches_oracle(family, data):
    vertices, edges = family
    bh = BitHypergraph.from_edges(edges, vertices)
    target = data.draw(st.sets(st.sampled_from(vertices)))
    mask = bh.mask_of(target)
    solver = ExactSetCoverSolver(bh)
    outcome = _outcome(solver.cover, mask)
    assert outcome == _outcome(ReferenceExactSetCoverSolver(edges).cover, target)
    # The same interned family answers vertex iterables identically.
    assert _outcome(solver.cover, target) == outcome
    if outcome[1] is None:
        _assert_valid_cover(solver.cover(mask), target, edges)


@pytest.mark.parametrize(
    "target, text",
    [
        ({1, 9}, "vertices ['9'] appear in no hyperedge"),
        ({"x", 2}, "vertices [\"'x'\"] appear in no hyperedge"),
        ({3, 9, "x"}, "vertices [\"'x'\", '3', '9'] appear in no hyperedge"),
    ],
    ids=["unknown", "unknown-str", "isolated-and-unknown"],
)
def test_uncoverable_raises_never_keyerror(target, text):
    bh = BitHypergraph.from_edges({"a": {1, 2}, "b": set()}, vertices=[1, 2, 3])
    for solver in (ExactSetCoverSolver(bh), ExactSetCoverSolver({"a": {1, 2}})):
        with pytest.raises(UncoverableError) as caught:
            solver.cover(target)
        assert str(caught.value) == text
