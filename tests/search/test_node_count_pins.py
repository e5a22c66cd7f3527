"""Node counts and brackets of the benchmark's exact-search cells.

Any drift in a reduction tie-break, in the iteration order of
``EliminationGraph.vertices()`` or in a per-node bound changes how many
nodes a search expands, even when the certified width stays right. These
pins hold the numbers the repository benchmark (``perfbench/cells.py``)
reports; with ``tests/search/test_rng_discipline.py`` they catch
ordering changes the width checks would miss. Per-node work does not
depend on the seed, so each pin is checked at two seeds.
"""

from __future__ import annotations

import pytest

from repro.core.api import generalized_hypertree_width, treewidth
from repro.instances.registry import instance

SEEDS = [0, 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_tw_queen5_5(seed):
    result = treewidth(instance("queen5_5"), algorithm="bb", seed=seed)
    assert result.value == 18
    assert result.nodes_expanded == 648


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_tw_myciel4(seed):
    result = treewidth(instance("myciel4"), algorithm="bb", seed=seed)
    assert result.value == 10
    assert result.nodes_expanded == 535


@pytest.mark.parametrize("seed", SEEDS)
def test_astar_tw_grid6_bracket(seed):
    result = treewidth(
        instance("grid6"), algorithm="astar", seed=seed, node_limit=500
    )
    assert (result.lower_bound, result.upper_bound) == (4, 6)
    assert result.nodes_expanded == 500


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_ghw_grid2d_5(seed):
    result = generalized_hypertree_width(
        instance("grid2d_5"), algorithm="bb", seed=seed
    )
    assert result.value == 3
    assert result.nodes_expanded == 155


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_ghw_b06_bracket(seed):
    result = generalized_hypertree_width(
        instance("b06"), algorithm="bb", seed=seed, node_limit=1000
    )
    assert (result.lower_bound, result.upper_bound) == (2, 4)
    assert result.nodes_expanded == 1000
