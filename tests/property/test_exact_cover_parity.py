"""The mask-native exact cover agrees with the frozenset oracle and
with its own per-node pivot rule.

:class:`repro.setcover.exact.ExactSetCoverSolver` answers through the
bitmask branch and bound of :mod:`repro.kernels.cover`; the frozenset
search it replaced is :class:`tests.reference.ReferenceExactSetCoverSolver`.
Covers are optimal, so sizes must agree exactly (the chosen names may
differ only between equally small covers), on vertex-iterable and on
bag-mask input, with duplicate, nested and empty edges, on labels whose
``repr`` order differs from their natural order, and with the same
error text for targets that cannot be covered.

:func:`repro.kernels.cover.exact_cover_mask` ranks the bag's bits by the
number of kept edges holding them once per call;
:func:`tests.reference.reference_exact_cover_mask` re-counts them at
every search node. Both must branch identically: the same cover tuple
and the same number of search nodes.

:func:`repro.kernels.cover.windowed_cover_mask` and the solver's bound
memo price a bag only inside a window ``(g, limit)``. Every answer must
still be a cover of the bag whose size ``v`` meets the window contract
against the cover number ``c`` of the oracle (``max(g, v) == max(g, c)``
when ``max(g, c) < limit``, else ``max(g, v) >= limit``), every proven lower
bound must be at most ``c``, and every cover marked exact (its size
meets the proven bound) must be the tuple the unwindowed search returns.
Its setup finds dominated edges by ANDing, per bag bit, the masks of the
kept edges holding it; :func:`tests.reference.reference_windowed_cover_mask`
scans the kept list instead, and both must answer every window alike.
Witness decompositions and ``exact_cover_width`` read the solver too,
and must label every bag with the unwindowed tuple.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.decompositions.elimination import (
    elimination_bags,
    ordering_ghw,
    ordering_to_ghd,
)
from repro.decompositions.ghd import exact_cover_width
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.cover import exact_cover_mask, windowed_cover_mask
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import UncoverableError
from tests.reference import (
    ReferenceExactSetCoverSolver,
    reference_exact_cover_mask,
    reference_windowed_cover_mask,
)

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
        _assert_valid_cover(solver.bh.names_of(solver.cover(target)), target, edges)
        assert len(solver.cover(target)) == size


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
        _assert_valid_cover(bh.names_of(solver.cover(mask)), target, edges)


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


def _mask_outcome(cover, bh, mask):
    nodes = [0]
    try:
        return cover(bh, mask, nodes), nodes[0], None
    except UncoverableError as exc:
        return None, None, str(exc)


@st.composite
def branching_families(draw):
    """``(vertices, name -> edge, target)`` whose exact search branches:
    8-14 vertices in 6-14 edges of 2-4 vertices, some duplicated or
    nested in an earlier edge; the target is most of the vertices, and
    a vertex may lie in no edge."""
    n = draw(st.integers(min_value=8, max_value=14))
    vertices = list(range(n))
    edges: dict = {}
    for j in range(draw(st.integers(min_value=6, max_value=14))):
        kind = draw(st.sampled_from(("fresh", "fresh", "fresh", "duplicate", "nested")))
        if kind == "fresh" or not edges:
            members = frozenset(
                draw(st.sets(st.sampled_from(vertices), min_size=2, max_size=4))
            )
        else:
            other = sorted(edges[draw(st.sampled_from(sorted(edges)))])
            if kind == "duplicate":
                members = frozenset(other)
            else:
                members = frozenset(draw(st.sets(st.sampled_from(other), min_size=1)))
        edges[f"e{draw(st.integers(0, 99))}_{j}"] = members
    target = set(vertices) - draw(st.sets(st.sampled_from(vertices), max_size=3))
    return vertices, edges, target


@given(st.one_of(families(), branching_families()), st.data())
@settings(max_examples=300, deadline=None)
def test_ranked_pivots_branch_like_the_per_node_rule(family, data):
    vertices, edges, *target = family
    bh = BitHypergraph.from_edges(edges, vertices)
    mask = bh.mask_of(
        target[0] if target else data.draw(st.sets(st.sampled_from(vertices)))
    )
    outcome = _mask_outcome(exact_cover_mask, bh, mask)
    assert outcome == _mask_outcome(reference_exact_cover_mask, bh, mask)


def test_ranked_pivots_on_nested_duplicate_and_uncoverable_edges():
    edges = {
        "a": {1, 2, 3, 4},
        "b": {1, 2},  # nested in a
        "c": {3, 4, 5},
        "d": {3, 4, 5},  # duplicate of c
        "e": {5, 6},
        "f": {6, 7, 1},
        "g": {2, 7},
        "h": set(),
    }
    bh = BitHypergraph.from_edges(edges, vertices=range(1, 9))
    full = bh.mask_of(range(1, 8))
    nodes = [0]
    cover = exact_cover_mask(bh, full, nodes)
    assert len(cover) == 3
    assert _mask_outcome(exact_cover_mask, bh, full) == _mask_outcome(
        reference_exact_cover_mask, bh, full
    )
    # Vertex 8 lies in no edge: both raise, with the same text.
    with pytest.raises(UncoverableError, match=r"\['8'\]"):
        exact_cover_mask(bh, bh.mask_of(range(1, 9)))
    with pytest.raises(UncoverableError, match=r"\['8'\]"):
        reference_exact_cover_mask(bh, bh.mask_of(range(1, 9)))


def _meets_window(size: int, true: int, g: int, limit: int | None) -> bool:
    if limit is None or max(g, true) < limit:
        return max(g, size) == max(g, true)
    return max(g, size) >= limit


windows = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)


@given(st.one_of(families(), branching_families()), windows, st.data())
@settings(max_examples=300, deadline=None)
def test_windowed_kernel_meets_the_window_contract(family, window, data):
    vertices, edges, *target = family
    target = target[0] if target else data.draw(st.sets(st.sampled_from(vertices)))
    bh = BitHypergraph.from_edges(edges, vertices)
    mask = bh.mask_of(target)
    g, limit = window
    try:
        true = len(reference_exact_cover_mask(bh, mask))
    except UncoverableError as exc:
        with pytest.raises(UncoverableError) as caught:
            windowed_cover_mask(bh, mask, g, limit)
        assert str(caught.value) == str(exc)
        return
    cover, lower = windowed_cover_mask(bh, mask, g, limit)
    _assert_valid_cover(bh.names_of(cover), target, edges)
    assert lower <= true <= len(cover)
    assert _meets_window(len(cover), true, g, limit)
    if lower == len(cover):
        assert cover == exact_cover_mask(bh, mask)


@given(branching_families(), st.data())
@settings(max_examples=150, deadline=None)
def test_bound_memo_keeps_the_window_contract(family, data):
    """Random windows on a few bags of one solver: every answer meets its
    window, and every memo entry holds a sound bound and a cover, the
    unwindowed tuple wherever the two meet."""
    vertices, edges, target = family
    bh = BitHypergraph.from_edges(edges, vertices)
    coverable = [v for v in sorted(target) if bh.incidence_masks[bh.index[v]]]
    assume(coverable)
    bags = [bh.mask_of(coverable)] + [
        bh.mask_of(data.draw(st.sets(st.sampled_from(coverable), min_size=1)))
        for _ in range(2)
    ]
    solver = ExactSetCoverSolver(bh)
    truth = {bag: len(reference_exact_cover_mask(bh, bag)) for bag in bags}
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        bag = data.draw(st.sampled_from(bags))
        g, limit = data.draw(windows)
        found = solver.cover(bag, g, limit)
        _assert_valid_cover(bh.names_of(found), bh.vertices_of(bag), edges)
        assert _meets_window(len(found), truth[bag], g, limit)
        for entry_bag, (lower, cover) in solver._memo.items():
            assert lower <= truth[entry_bag] <= len(cover)
            if lower == len(cover):
                assert cover == exact_cover_mask(bh, entry_bag)
    for bag in bags:
        # Unwindowed lookups stay exact whatever the memo holds.
        assert solver.cover(bag) == exact_cover_mask(bh, bag)


def _windowed_outcome(cover, bh, mask, g, limit):
    nodes = [0]
    try:
        return cover(bh, mask, g, limit, nodes), nodes[0], None
    except UncoverableError as exc:
        return None, None, str(exc)


@given(st.one_of(families(), branching_families()), windows, st.data())
@settings(max_examples=300, deadline=None)
def test_windowed_setup_on_incidence_masks_matches_the_list_scan(family, window, data):
    """Dominated edges found by ANDing incidence masks over kept
    positions, and pivots listed from them, give the frozen list scan's
    ``(cover, lower)`` and search node count on every window."""
    vertices, edges, *target = family
    target = target[0] if target else data.draw(st.sets(st.sampled_from(vertices)))
    bh = BitHypergraph.from_edges(edges, vertices)
    mask = bh.mask_of(target)
    g, limit = window
    assert _windowed_outcome(windowed_cover_mask, bh, mask, g, limit) == (
        _windowed_outcome(reference_windowed_cover_mask, bh, mask, g, limit)
    )


def test_windowed_setup_on_nested_and_duplicate_edges():
    # c/d duplicate, b nested in a, k nested in both j and i; every
    # window from "priced at once" to "search to the end".
    edges = {
        "a": {1, 2, 3, 4},
        "b": {1, 2},
        "c": {3, 4, 5},
        "d": {3, 4, 5},
        "e": {5, 6},
        "f": {6, 7, 1},
        "g": {2, 7},
        "i": {8, 9, 10},
        "j": {8, 9, 11},
        "k": {8, 9},
        "l": {10, 11},
    }
    bh = BitHypergraph.from_edges(edges, vertices=range(1, 12))
    for bag in (range(1, 12), range(1, 8), (8, 9, 10, 11), (3, 4), (5,)):
        mask = bh.mask_of(bag)
        for g in range(5):
            for limit in (None, *range(1, 7)):
                outcome = _windowed_outcome(windowed_cover_mask, bh, mask, g, limit)
                assert outcome == _windowed_outcome(
                    reference_windowed_cover_mask, bh, mask, g, limit
                )


def _assert_witness_is_unwindowed(hypergraph, ordering, lookups):
    """Price ``lookups`` (bag index, window) first, then check that every
    lambda-label of the exact witness is the unwindowed tuple and that
    ``exact_cover_width`` is their largest size."""
    bh = BitHypergraph.from_hypergraph(hypergraph)
    bags = sorted(elimination_bags(bh, ordering).values())
    windowed = ExactSetCoverSolver(bh)
    for position, window in lookups:
        windowed.cover(bags[position % len(bags)], *window)
    ghd = ordering_to_ghd(hypergraph, ordering, cover="exact")
    sizes = []
    for node in ghd.tree.nodes():
        cover = exact_cover_mask(bh, bh.mask_of(ghd.tree.bags[node]))
        assert ghd.covers[node] == set(bh.names_of(cover))
        sizes.append(len(cover))
    assert exact_cover_width(ghd, hypergraph) == max(sizes)


@given(families(), st.data())
@settings(max_examples=150, deadline=None)
def test_witness_labels_are_the_unwindowed_covers(family, data):
    """Every lambda-label of ``ordering_to_ghd(h, sigma, "exact")`` is the
    tuple the unwindowed :func:`exact_cover_mask` returns for its bag, and
    ``exact_cover_width`` is their largest size, also after windowed
    lookups of the same bags have filled the cover cache."""
    _vertices, edges = family
    hypergraph = Hypergraph({name: edge for name, edge in edges.items() if edge})
    assume(hypergraph.num_vertices())
    ordering = data.draw(st.permutations(sorted(hypergraph.vertices(), key=repr)))
    lookups = data.draw(st.lists(st.tuples(st.integers(0, 99), windows), max_size=6))
    _assert_witness_is_unwindowed(hypergraph, ordering, lookups)


def test_witness_labels_are_exact_where_greedy_is_not():
    """The bag {1, 3, 4, 5, 6, 7, 8} of this ordering takes three edges
    greedily (middle first) and two exactly (top, bottom); a lookup with
    ``g = 3`` leaves the greedy cover in that solver's memo."""
    hypergraph = Hypergraph(
        {"top": {1, 2, 3, 4}, "bottom": {5, 6, 7, 8}, "middle": {2, 3, 4, 5, 6, 7}}
    )
    ordering = [2, 5, 1, 3, 4, 6, 7, 8]
    assert ordering_ghw(hypergraph, ordering, cover="greedy") == 3
    lookups = [(position, (3, None)) for position in range(len(ordering))]
    _assert_witness_is_unwindowed(hypergraph, ordering, lookups)
