"""Windowed lower bounds answer every window the way the searches read it.

The exact searches ask for a state's lower bound ``h`` only inside a
window ``(floor, limit)`` (DESIGN.md, "Windowed lower bounds"): branch
and bound reads only whether ``h`` reaches its pruning bound, A* reads
``h`` only above the parent's ``f``. A windowed answer ``v`` must
satisfy, for the exact ``h``:

* ``v <= h`` always (the ghw measure memoises it as a proven bound);
* ``max(floor, v) == max(floor, h)`` when that is below ``limit``;
* ``max(floor, v) >= limit`` otherwise.

These tests hold the minor-bound kernel, ``treewidth_lower_bound`` and
both search measures to that on random graphs and on mid-search states
of random hypergraphs, for every window in small ranges. A measure's
windows are shuffled and asked of one measure, so the ghw measure's
per-``alive`` interval memo is shared across windows and states; a
final ``lower()`` without a window must then still return the exact
bound.
"""

from __future__ import annotations

import random

import pytest

from repro.bounds.ghw_lower import tw_ksc_width_remaining
from repro.bounds.lower import treewidth_lower_bound
from repro.hypergraphs.graph import Graph
from repro.kernels.minor_bound import minor_lower_bound
from repro.search.bb_ghw import GhwMeasure
from repro.search.bb_tw import TreewidthMeasure
from tests.property.test_astar_expansion_order import random_graph, random_hypergraph

METHODS = ("minor-min-width", "minor-gamma-r")
SUBSETS = (("minor-min-width",), ("minor-gamma-r",), METHODS)


def _check_window(v: int, h: int, floor: int, limit: int) -> None:
    assert v <= h, (v, h, floor, limit)
    if max(floor, h) < limit:
        assert max(floor, v) == max(floor, h), (v, h, floor, limit)
    else:
        assert max(floor, v) >= limit, (v, h, floor, limit)


def _windows(top: int, rng: random.Random) -> list[tuple[int, int]]:
    """Every ``(floor, limit)`` with ``0 <= floor <= top + 1`` and
    ``0 <= limit <= top + 2``, shuffled."""
    windows = [
        (floor, limit) for floor in range(top + 2) for limit in range(top + 3)
    ]
    rng.shuffle(windows)
    return windows


def _small_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 10)
    density = rng.choice((0.2, 0.35, 0.5, 0.7, 1.0))
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                graph.add_edge(i, j)
    return graph


@pytest.mark.parametrize("seed", range(6))
def test_kernel_answers_every_window(seed):
    rng = random.Random(seed)
    for _ in range(25):
        graph = _small_graph(rng)
        for methods in SUBSETS:
            selected = {
                "min_width": "minor-min-width" in methods,
                "gamma_r": "minor-gamma-r" in methods,
            }
            h = minor_lower_bound(graph, **selected)
            for floor, limit in _windows(h, rng):
                _check_window(
                    minor_lower_bound(graph, **selected, floor=floor, limit=limit),
                    h, floor, limit,
                )
                _check_window(
                    treewidth_lower_bound(
                        graph, methods=methods, floor=floor, limit=limit
                    ),
                    h, floor, limit,
                )


def _prefixes(measure, rng: random.Random, states: int) -> list[tuple]:
    """``states`` random elimination prefixes of ``measure.working``,
    the empty one first, and a repeat so two prefixes share a set."""
    live = sorted(measure.working.vertices(), key=repr)
    prefixes = [()]
    for _ in range(states - 2):
        prefixes.append(tuple(rng.sample(live, rng.randint(1, len(live) - 1))))
    prefixes.append(tuple(reversed(prefixes[-1])))
    return prefixes


def _ask_interleaved(measure, exact, rng: random.Random) -> None:
    """Every window of every prefix, shuffled together and asked of
    ``measure``; then one unwindowed query per prefix. ``exact`` maps a
    prefix to its exact bound."""
    working = measure.working
    top = max(3, *exact.values())
    queries = [
        (prefix, floor, limit)
        for prefix in exact
        for floor, limit in _windows(top, rng)
    ]
    rng.shuffle(queries)
    for prefix, floor, limit in queries:
        working.switch_to(prefix)
        _check_window(measure.lower(floor, limit), exact[prefix], floor, limit)
    for prefix, h in exact.items():
        working.switch_to(prefix)
        assert measure.lower() == h


@pytest.mark.parametrize("seed", range(8))
def test_tw_measure_answers_every_window(seed):
    rng = random.Random(seed)
    measure = TreewidthMeasure(random_graph(seed), METHODS, use_reductions=True)
    exact = {}
    for prefix in _prefixes(measure, rng, 5):
        measure.working.switch_to(prefix)
        exact[prefix] = treewidth_lower_bound(measure.working, methods=METHODS)
    _ask_interleaved(measure, exact, rng)


@pytest.mark.parametrize("seed", range(16))
def test_ghw_measure_answers_every_window(seed):
    """The ghw memo keeps one interval per remaining set: it is shared
    across windows, across the prefixes that reach one set, and must
    still hold the exact bound at the end."""
    rng = random.Random(seed)
    measure = GhwMeasure(random_hypergraph(seed), METHODS, use_reductions=True)
    bh, working = measure.bh, measure.working
    exact, by_set = {}, {}
    for prefix in _prefixes(measure, rng, 6):
        working.switch_to(prefix)
        h = tw_ksc_width_remaining(bh, working, tw_methods=METHODS, rng=None)
        exact[prefix] = by_set[working.alive] = h
    _ask_interleaved(measure, exact, rng)
    for alive, (lo, hi) in measure.bounds.items():
        assert lo == by_set[alive] == hi


@pytest.mark.parametrize("seed", range(6))
def test_tw_ksc_width_remaining_answers_every_window(seed):
    rng = random.Random(2000 + seed)
    measure = GhwMeasure(random_hypergraph(seed), METHODS, use_reductions=True)
    bh, working = measure.bh, measure.working
    for prefix in _prefixes(measure, rng, 6):
        working.switch_to(prefix)
        profile = measure.profile()
        h = tw_ksc_width_remaining(bh, working, tw_methods=METHODS, rng=None)
        for floor, limit in _windows(len(profile) + 1, rng):
            v = tw_ksc_width_remaining(
                bh, working, tw_methods=METHODS, rng=None,
                profile=profile, floor=floor, limit=limit,
            )
            _check_window(v, h, floor, limit)
