"""Regression: ``ordering_ghw(..., rng=r)`` must draw its ties from ``r``.

One path of :func:`~repro.decompositions.elimination.ordering_ghw` used
to drop ``rng`` silently and return the deterministic-tie greedy width,
leaving ``r`` untouched. ``ordering_ghw`` now has one path, on the
bitmask kernel: with an ``rng`` it runs the thesis's random tie-breaks
(uncached) and replays the pure-Python oracle, width and random state
alike; without one it gives the oracle's deterministic-tie width.
"""

import random

import pytest

from repro.decompositions.elimination import ordering_ghw
from repro.instances.registry import instance
from tests.reference import make_reference_ghw_evaluator


def _shuffled(hypergraph, seed):
    ordering = sorted(hypergraph.vertices(), key=repr)
    random.Random(seed).shuffle(ordering)
    return ordering


@pytest.mark.parametrize("name", ["grid2d_4", "grid2d_5", "adder_6"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_seeded_greedy_width_and_rng_state_agree_across_backends(name, seed):
    hypergraph = instance(name)
    ordering = _shuffled(hypergraph, seed)
    rng = random.Random(seed)
    width = ordering_ghw(hypergraph, ordering, cover="greedy", rng=rng)
    oracle_rng = random.Random(seed)
    oracle = make_reference_ghw_evaluator(hypergraph, rng=oracle_rng)(ordering)
    assert (width, rng.getstate()) == (oracle, oracle_rng.getstate())


@pytest.mark.parametrize("name", ["grid2d_4", "grid2d_5", "adder_6"])
def test_unseeded_greedy_width_matches_the_reference(name):
    hypergraph = instance(name)
    ordering = _shuffled(hypergraph, 3)
    oracle = make_reference_ghw_evaluator(hypergraph)(ordering)
    assert ordering_ghw(hypergraph, ordering, cover="greedy") == oracle


def test_seeded_greedy_draws_from_the_rng():
    hypergraph = instance("grid2d_5")
    rng = random.Random(3)
    before = rng.getstate()
    ordering_ghw(hypergraph, sorted(hypergraph.vertices(), key=repr), rng=rng)
    assert rng.getstate() != before
