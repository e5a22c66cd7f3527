"""The mask greedy cover replays the thesis's loop, random stream included.

:func:`repro.setcover.greedy.greedy_set_cover` runs one greedy loop over
bitmasks, whether it is handed a name -> vertices mapping (interned per
call) or a bag mask with a :class:`BitHypergraph`. GA-ghw's fitness
depends on its random tie-breaks, so the loop must list the
maximum-gain edges exactly as the pure-Python loop of
:mod:`tests.reference` does — in edge insertion order, not ``repr``
order — and call ``rng.choice`` at every step. Both the returned names
and the final ``rng.getstate()`` are compared. The loop keeps every
edge's gain in bit-sliced counters, so a second family runs them wide
(masks past 64 edges, gains across five or more bit planes) and fixed
cases put the maximum gain exactly on a power of two.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompositions.elimination import elimination_bags
from repro.hypergraphs.graph import Graph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.setcover.greedy import UncoverableError, greedy_set_cover
from tests.reference import (
    reference_elimination_bags,
    reference_greedy_set_cover,
)

#: Vertex and edge-name labels: ints >= 10 (so ``repr`` order is not
#: numeric order next to single digits), strings and tuples.
LABEL_KINDS = ("int", "str", "tuple")


def _vertex(kind: str, i: int):
    return {"int": 10 + i, "str": f"v{i}", "tuple": (i % 3, i)}[kind]


def _edge_name(kind: str, i: int):
    # 5..: '10' sorts before '5'; 'e10' before 'e2'; tuples by first field
    return {"int": 5 + i, "str": f"e{i}", "tuple": (i % 2, -i)}[kind]


@st.composite
def families(draw):
    """``(vertices, edges, target)`` with duplicate, nested and empty edges.

    Edge names are inserted in a shuffled order, so insertion order and
    ``repr`` order disagree; the target may hold vertices no edge has.
    """
    kind = draw(st.sampled_from(LABEL_KINDS))
    name_kind = draw(st.sampled_from(LABEL_KINDS))
    n = draw(st.integers(min_value=1, max_value=9))
    vertices = [_vertex(kind, i) for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=9))
    order = draw(st.permutations(range(m)))
    edges: dict = {}
    for i in order:
        shape = draw(
            st.sampled_from(("fresh", "fresh", "duplicate", "nested", "empty"))
        )
        earlier = list(edges.values())
        if shape == "duplicate" and earlier:
            edge = set(draw(st.sampled_from(earlier)))
        elif shape == "nested" and earlier:
            parent = sorted(draw(st.sampled_from(earlier)), key=repr)
            edge = set()
            if parent:
                edge = set(draw(st.lists(st.sampled_from(parent), unique=True)))
        elif shape == "empty":
            edge = set()
        else:
            edge = set(
                draw(st.lists(st.sampled_from(vertices), unique=True, max_size=4))
            )
        edges[_edge_name(name_kind, i)] = frozenset(edge)
    target = set(draw(st.lists(st.sampled_from(vertices), unique=True)))
    return vertices, edges, target


def _intern(vertices, edges) -> BitHypergraph:
    """A :class:`BitHypergraph` of the family, empty edges included."""
    index = {vertex: i for i, vertex in enumerate(vertices)}
    masks = [sum(1 << index[v] for v in edge) for edge in edges.values()]
    nbr_masks = [0] * len(vertices)
    for mask in masks:
        for i in range(len(vertices)):
            if mask >> i & 1:
                nbr_masks[i] |= mask & ~(1 << i)
    return BitHypergraph(list(vertices), nbr_masks, list(edges), masks)


def _run(cover, target, edges, rng):
    """``(names or the error message, rng state afterwards)``."""
    try:
        outcome = cover(target, edges, rng=rng)
    except UncoverableError as error:
        outcome = ("uncoverable", str(error))
    return outcome, None if rng is None else rng.getstate()


@given(families(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=300, deadline=None)
def test_seeded_greedy_replays_the_reference(case, seed):
    vertices, edges, target = case
    reference = _run(reference_greedy_set_cover, target, edges, random.Random(seed))
    assert _run(greedy_set_cover, target, edges, random.Random(seed)) == reference
    bh = _intern(vertices, edges)
    assert (
        _run(greedy_set_cover, bh.mask_of(target), bh, random.Random(seed))
        == reference
    )


@given(families())
@settings(max_examples=300, deadline=None)
def test_deterministic_greedy_matches_the_reference(case):
    vertices, edges, target = case
    expected = _run(reference_greedy_set_cover, target, edges, None)
    assert _run(greedy_set_cover, target, edges, None) == expected
    bh = _intern(vertices, edges)
    assert _run(greedy_set_cover, bh.mask_of(target), bh, None) == expected


def test_ties_are_drawn_in_insertion_order_not_repr_order():
    # Three single-vertex edges tie at every step; their insertion order
    # (b, c, a) differs from their repr order (a, b, c).
    edges = {"b": frozenset({1}), "c": frozenset({2}), "a": frozenset({3})}
    bh = _intern([1, 2, 3], edges)
    for seed in range(20):
        reference = _run(
            reference_greedy_set_cover, {1, 2, 3}, edges, random.Random(seed)
        )
        mapping = _run(greedy_set_cover, {1, 2, 3}, edges, random.Random(seed))
        masks = _run(greedy_set_cover, 0b111, bh, random.Random(seed))
        assert mapping == masks == reference


@st.composite
def wide_families(draw):
    """``(vertices, edges, target)`` whose gain counters are wide.

    65-150 edges, so masks over edge indices pass 64 bits; edges of up
    to 40 vertices and targets of up to 70, so carries and borrows cross
    five or more bit planes. Duplicate, nested and empty edges again,
    with names inserted in a shuffled order.
    """
    kind = draw(st.sampled_from(LABEL_KINDS))
    name_kind = draw(st.sampled_from(LABEL_KINDS))
    n = draw(st.integers(min_value=1, max_value=70))
    m = draw(st.integers(min_value=65, max_value=150))
    build = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    vertices = [_vertex(kind, i) for i in range(n)]
    order = list(range(m))
    build.shuffle(order)
    edges: dict = {}
    for i in order:
        shape = build.choice(("fresh", "fresh", "duplicate", "nested", "empty"))
        earlier = list(edges.values())
        if shape == "duplicate" and earlier:
            edge = build.choice(earlier)
        elif shape == "nested" and earlier:
            parent = sorted(build.choice(earlier), key=repr)
            edge = build.sample(parent, build.randint(0, len(parent)))
        elif shape == "empty":
            edge = ()
        else:
            edge = build.sample(vertices, build.randint(1, min(n, 40)))
        edges[_edge_name(name_kind, i)] = frozenset(edge)
    target = set(build.sample(vertices, build.randint(0, n)))
    return vertices, edges, target


def _assert_all_paths_replay_the_reference(vertices, edges, target, seeds):
    """Mapping and mask paths give the oracle's names and rng state."""
    bh = _intern(vertices, edges)
    for seed in seeds:
        rng = None if seed is None else random.Random(seed)
        reference = _run(reference_greedy_set_cover, target, edges, rng)
        rng = None if seed is None else random.Random(seed)
        assert _run(greedy_set_cover, target, edges, rng) == reference
        rng = None if seed is None else random.Random(seed)
        assert _run(greedy_set_cover, bh.mask_of(target), bh, rng) == reference


@given(wide_families(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_wide_gain_counters_replay_the_reference(case, seed):
    _assert_all_paths_replay_the_reference(*case, seeds=(seed, None))


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32, 64])
def test_maximum_gain_equal_to_the_bag_size(size):
    # The best gain |bag| = 2**k sets only the top bit plane: several
    # edges equal to the bag (or holding it) tie there, beside subsets,
    # duplicates and edges reaching outside the bag.
    build = random.Random(size)
    vertices = [_vertex("int", i) for i in range(size + 8)]
    target = set(vertices[:size])
    family = [target, target, set(vertices), target | set(vertices[-3:])]
    for _ in range(40):
        family.append(set(build.sample(vertices, build.randint(1, size))))
        family.append(set(build.sample(sorted(target), build.randint(1, size))))
    build.shuffle(family)
    edges = {f"e{i}": frozenset(edge) for i, edge in enumerate(family)}
    _assert_all_paths_replay_the_reference(
        vertices, edges, target, seeds=(*range(10), None)
    )
    single = {"whole": frozenset(target), "part": frozenset(vertices[:1])}
    _assert_all_paths_replay_the_reference(
        vertices, single, target, seeds=(0, None)
    )


@st.composite
def graphs_and_orderings(draw):
    kind = draw(st.sampled_from(LABEL_KINDS))
    n = draw(st.integers(min_value=0, max_value=9))
    vertices = [_vertex(kind, i) for i in range(n)]
    edges = [
        (vertices[u], vertices[v])
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    ordering = list(draw(st.permutations(vertices)))
    return Graph(vertices=vertices, edges=edges), ordering


@given(graphs_and_orderings())
@settings(max_examples=200, deadline=None)
def test_elimination_bag_masks_unpack_to_the_reference(case):
    graph, ordering = case
    expected = reference_elimination_bags(graph, ordering)
    bg = BitGraph.from_graph(graph)
    masks = elimination_bags(bg, ordering)
    assert list(masks) == ordering
    assert {v: bg.vertices_of(mask) for v, mask in masks.items()} == expected
    bags = elimination_bags(graph, ordering)
    assert list(bags) == ordering
    assert bags == expected


# Gain-one tail: once no edge holds two uncovered vertices the loop drops
# its gain counters and covers one vertex per step. These fixed cases
# enter that tail at once, after larger gains, and with a vertex no edge
# holds; every case runs seeded and with ``rng=None``.

TAIL_SEEDS = (*range(12), None)


def _pick_gains(edges, target, names):
    """The gain of each pick in ``names``, in order."""
    uncovered = set(target)
    gains = []
    for name in names:
        gains.append(len(uncovered & edges[name]))
        uncovered -= edges[name]
    return gains


def test_tail_one_vertex_bag():
    vertices = [_vertex("int", i) for i in range(5)]
    v = vertices[2]
    edges = {
        7: frozenset({v, vertices[0]}),
        5: frozenset({vertices[1]}),
        12: frozenset({v}),
        6: frozenset(),
        10: frozenset({v, vertices[3], vertices[4]}),
    }
    _assert_all_paths_replay_the_reference(vertices, edges, {v}, TAIL_SEEDS)


def test_tail_from_the_start_with_singleton_edges():
    # Every edge meets the bag in at most one vertex, so the first step
    # is already a tail step; vertices hold one to three tied edges.
    build = random.Random(3)
    vertices = [_vertex("str", i) for i in range(12)]
    target = set(vertices[:9])
    family = []
    for vertex in vertices:
        for _ in range(build.randint(1, 3)):
            outside = build.sample(vertices[9:], build.randint(0, 2))
            family.append({vertex, *outside} if vertex in target else {vertex})
    family += [set(), set()]
    build.shuffle(family)
    edges = {_edge_name("int", i): frozenset(e) for i, e in enumerate(family)}
    assert all(len(edge & target) <= 1 for edge in edges.values())
    _assert_all_paths_replay_the_reference(vertices, edges, target, TAIL_SEEDS)


def test_tail_entered_after_a_gain_three_pick():
    v = [_vertex("tuple", i) for i in range(10)]
    target = set(v[:6])
    edges = {
        "big": frozenset(v[0:3]),
        "a": frozenset({v[0], v[3]}),
        "b": frozenset({v[1], v[4], v[7]}),
        "g": frozenset({v[2], v[5]}),
        "c": frozenset({v[5]}),
        "d": frozenset({v[3]}),
        "e": frozenset({v[4], v[8]}),
        "f": frozenset({v[5], v[9]}),
    }
    for seed in TAIL_SEEDS:
        rng = None if seed is None else random.Random(seed)
        gains = _pick_gains(edges, target, greedy_set_cover(target, edges, rng))
        assert gains[0] == 3 and set(gains[1:]) == {1}
    _assert_all_paths_replay_the_reference(v, edges, target, TAIL_SEEDS)


def test_tail_finds_an_uncoverable_vertex():
    # A gain-2 step, then tail steps, then the vertex no edge holds.
    v = [_vertex("int", i) for i in range(7)]
    target = set(v[:6])
    edges = {
        "p": frozenset({v[0], v[1]}),
        "q": frozenset({v[2]}),
        "r": frozenset({v[2], v[6]}),
        "s": frozenset({v[3]}),
        "t": frozenset({v[4], v[6]}),
        "u": frozenset({v[1], v[4]}),
    }
    for seed in TAIL_SEEDS:
        rng = None if seed is None else random.Random(seed)
        outcome, _state = _run(greedy_set_cover, target, edges, rng)
        missing = f"vertices {[repr(v[5])]} appear in no hyperedge"
        assert outcome == ("uncoverable", missing)
    _assert_all_paths_replay_the_reference(v, edges, target, TAIL_SEEDS)


def test_tail_without_rng_takes_the_smallest_name_first():
    # Integer names: insertion order, index order and repr order ('10'
    # before '5') all differ across the tied tail edges.
    vertices = [_vertex("int", i) for i in range(6)]
    names = [9, 5, 13, 10, 6, 11, 7, 12, 8]
    edges = {
        name: frozenset({vertices[i % 6]}) for i, name in enumerate(names)
    }
    target = set(vertices)
    # repr order, skipping edges whose vertex an earlier pick covered
    expected = [10, 11, 12, 13, 6, 7]
    assert greedy_set_cover(target, edges) == expected
    bh = _intern(vertices, edges)
    assert greedy_set_cover(bh.mask_of(target), bh) == expected
    _assert_all_paths_replay_the_reference(vertices, edges, target, (None,))


class Alias:
    """An edge name whose ``repr`` other names may share: ``rng=None``
    then takes the tied edge inserted first."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def test_tail_without_rng_breaks_equal_names_by_insertion_order():
    # Every step is a tail step; the "a" edges tie on repr, and the
    # first inserted of them is not the lowest vertex's.
    vertices = [_vertex("int", i) for i in range(5)]
    names = [Alias(text) for text in ("b", "a", "c", "a", "a", "b", "a")]
    held = [{0}, {3}, {1}, {1}, {4}, {2}, {0}]
    edges = {
        name: frozenset(vertices[i] for i in members)
        for name, members in zip(names, held)
    }
    target = set(vertices[:4])  # names[4] holds no target vertex
    assert greedy_set_cover(target, edges) == [names[1], names[3], names[6], names[5]]
    _assert_all_paths_replay_the_reference(vertices, edges, target, TAIL_SEEDS)


@st.composite
def tail_families(draw):
    """``(vertices, edges, target)`` whose greedy runs are all tail: each
    edge holds at most one target vertex, names share a few ``repr``s,
    and some target vertices may be held by no edge."""
    n = draw(st.integers(min_value=1, max_value=30))
    vertices = [_vertex("str", i) for i in range(n + 4)]
    target = set(vertices[:n])
    edges: dict = {}
    for _ in range(draw(st.integers(min_value=0, max_value=70))):
        held = draw(st.integers(min_value=0, max_value=n))
        outside = set(draw(st.lists(st.sampled_from(vertices[n:]), max_size=2)))
        edge = outside if held == n else {vertices[held], *outside}
        edges[Alias(draw(st.sampled_from("abcde")))] = frozenset(edge)
    return vertices, edges, target


@given(tail_families(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_tail_families_replay_the_reference(case, seed):
    _assert_all_paths_replay_the_reference(*case, seeds=(seed, None))


class RandomOnly(random.Random):
    """A generator that overrides only ``random()``: ``random.Random``
    then draws indices from floats, not from ``getrandbits``."""

    def random(self) -> float:
        return super().random()


def test_random_only_subclass_draws_as_choice():
    # ``Random.__init_subclass__`` gives such a subclass the float-based
    # index draw; the greedy loop must take it, as ``choice`` does.
    assert RandomOnly._randbelow is RandomOnly._randbelow_without_getrandbits
    vertices = [_vertex("int", i) for i in range(8)]
    target = set(vertices)
    edges = {
        "ab": frozenset(vertices[0:2]),
        "cd": frozenset(vertices[2:4]),
        "bc": frozenset(vertices[1:3]),
        "ef": frozenset(vertices[4:6]),
        **{f"s{i}": frozenset({v}) for i, v in enumerate(vertices)},
    }
    for seed in range(12):
        reference = _run(reference_greedy_set_cover, target, edges, RandomOnly(seed))
        assert _run(greedy_set_cover, target, edges, RandomOnly(seed)) == reference
        bh = _intern(vertices, edges)
        assert (
            _run(greedy_set_cover, bh.mask_of(target), bh, RandomOnly(seed))
            == reference
        )


@given(families(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_random_only_subclass_replays_the_reference(case, seed):
    vertices, edges, target = case
    reference = _run(reference_greedy_set_cover, target, edges, RandomOnly(seed))
    assert _run(greedy_set_cover, target, edges, RandomOnly(seed)) == reference
    bh = _intern(vertices, edges)
    assert (
        _run(greedy_set_cover, bh.mask_of(target), bh, RandomOnly(seed))
        == reference
    )
