"""Regression: ``ordering_ghw(..., rng=r, backend="bitset")`` used ``r``.

The bitset backend of :func:`~repro.decompositions.elimination.ordering_ghw`
used to drop ``rng`` silently and return the deterministic-tie greedy
width, leaving ``r`` untouched. Both backends now run the thesis's
random tie-breaks (uncached), so one ``rng`` gives the same width and
leaves the same random state on either backend — and both replay the
pure-Python oracle.
"""

import random

import pytest

from repro.decompositions.elimination import ordering_ghw
from repro.instances.registry import instance
from tests.reference import make_reference_ghw_evaluator


@pytest.mark.parametrize("name", ["grid2d_4", "grid2d_5", "adder_6"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_seeded_greedy_width_and_rng_state_agree_across_backends(name, seed):
    hypergraph = instance(name)
    ordering = sorted(hypergraph.vertices(), key=repr)
    random.Random(seed).shuffle(ordering)
    outcomes = []
    for backend in ("python", "bitset"):
        rng = random.Random(seed)
        width = ordering_ghw(
            hypergraph, ordering, cover="greedy", rng=rng, backend=backend
        )
        outcomes.append((width, rng.getstate()))
    oracle_rng = random.Random(seed)
    oracle = make_reference_ghw_evaluator(hypergraph, rng=oracle_rng)(ordering)
    assert outcomes[0] == outcomes[1] == (oracle, oracle_rng.getstate())


def test_bitset_backend_draws_from_the_rng():
    hypergraph = instance("grid2d_5")
    rng = random.Random(3)
    before = rng.getstate()
    ordering_ghw(
        hypergraph,
        sorted(hypergraph.vertices(), key=repr),
        rng=rng,
        backend="bitset",
    )
    assert rng.getstate() != before
