"""The ghw searches' mask-native per-node quantities are exact.

BB-ghw and A*-ghw intern the hypergraph once in their elimination
graph's vertex order and then read everything off masks:

* ``tw_ksc_width_remaining(bh, working)`` restricts edge sizes as
  ``popcount(edge & alive)``; it must equal the ``Hypergraph.restrict``
  path on the same state;
* the forced simplicial vertex and ``h`` are memoised per ``alive``
  mask, which is sound only if two orders that eliminate the same set
  leave the same live graph;
* PR1's greedy remainder cover is skipped on a size-profile floor, which
  is sound only if no cover of the remainder is smaller than the floor.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.ghw_lower import remainder_cover_floor, tw_ksc_width_remaining
from repro.hypergraphs.elimination_graph import EliminationGraph, bits_of
from repro.instances.registry import hypergraph_instance
from repro.kernels.bithypergraph import BitHypergraph
from repro.reductions.simplicial import find_simplicial
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover

INSTANCES = ("b06", "grid2d_5")


@lru_cache(maxsize=None)
def _setup(name: str):
    hypergraph = hypergraph_instance(name)
    primal = hypergraph.primal_graph()
    labels = EliminationGraph(primal).labels
    return hypergraph, primal, BitHypergraph.from_hypergraph(hypergraph, vertices=labels)


def _state(name: str, prefix) -> EliminationGraph:
    working = EliminationGraph(_setup(name)[1])
    for vertex in prefix:
        working.eliminate(vertex)
    return working


@st.composite
def mid_search_prefixes(draw):
    name = draw(st.sampled_from(INSTANCES))
    vertices = sorted(_setup(name)[0].vertices(), key=repr)
    order = draw(st.permutations(vertices))
    depth = draw(st.integers(min_value=0, max_value=len(order)))
    return name, order[:depth]


@given(mid_search_prefixes())
@settings(max_examples=60, deadline=None)
def test_mask_bound_equals_restrict_path(case):
    name, prefix = case
    hypergraph, _primal, bh = _setup(name)
    working = _state(name, prefix)
    masked = tw_ksc_width_remaining(bh, working, rng=None)
    assert masked == tw_ksc_width_remaining(hypergraph, working, rng=None)
    assert masked == tw_ksc_width_remaining(hypergraph, working.graph(), rng=None)


@given(mid_search_prefixes())
@settings(max_examples=60, deadline=None)
def test_remainder_floor_never_exceeds_a_cover(case):
    name, prefix = case
    _hypergraph, _primal, bh = _setup(name)
    alive = _state(name, prefix).alive
    floor = remainder_cover_floor(bh, alive)
    if alive:
        assert 1 <= floor <= len(ExactSetCoverSolver(bh).cover(alive))
        assert floor <= len(greedy_set_cover(alive, bh))
    else:
        assert floor == 0


@given(mid_search_prefixes(), st.data())
@settings(max_examples=60, deadline=None)
def test_same_eliminated_set_same_state(case, data):
    name, prefix = case
    _hypergraph, _primal, bh = _setup(name)
    other = data.draw(st.permutations(prefix))
    first = _state(name, prefix)
    second = _state(name, other)
    assert first.alive == second.alive
    live = bits_of(first.alive)
    assert [first.masks[i] for i in live] == [second.masks[i] for i in live]
    assert find_simplicial(first) == find_simplicial(second)
    assert tw_ksc_width_remaining(bh, first, rng=None) == tw_ksc_width_remaining(
        bh, second, rng=None
    )
