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

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.api import generalized_hypertree_width, treewidth
from repro.instances.registry import instance

SEEDS = [0, 7]
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_tw_queen5_5(seed):
    result = treewidth(instance("queen5_5"), algorithm="bb", seed=seed)
    assert result.value == 18
    assert result.nodes_expanded == 635


@pytest.mark.parametrize("seed", SEEDS)
def test_bb_tw_myciel4(seed):
    result = treewidth(instance("myciel4"), algorithm="bb", seed=seed)
    assert result.value == 10
    assert result.nodes_expanded == 132


@pytest.mark.parametrize("seed", SEEDS)
def test_astar_tw_myciel4(seed):
    result = treewidth(instance("myciel4"), algorithm="astar", seed=seed)
    assert result.value == 10
    assert result.nodes_expanded == 131


@pytest.mark.parametrize("seed", SEEDS)
def test_astar_tw_grid6_bracket(seed):
    result = treewidth(
        instance("grid6"), algorithm="astar", seed=seed, node_limit=500
    )
    assert (result.lower_bound, result.upper_bound) == (5, 6)
    assert result.nodes_expanded == 500


#: Each tw-exact cell of the benchmark with the children its run skipped
#: by duplicate detection on the eliminated set (``prunes{rule="dup"}``)
#: and the children it forced (``reductions{kind="forced"}``). Forcing is
#: asked only of a child that survives its bound, so the forcing counter
#: counts survivors.
TW_DUP_PINS = (
    ("bb", "queen5_5", None, 62, 96),
    ("astar", "myciel4", None, 24, 161),
    ("bb", "myciel4", None, 14, 65),
    ("astar", "grid6", 500, 158, 491),
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "algorithm, name, budget, dups, forced",
    TW_DUP_PINS,
    ids=[f"{algorithm}-{name}" for algorithm, name, *_counts in TW_DUP_PINS],
)
def test_tw_dup_counter(algorithm, name, budget, dups, forced, seed):
    with obs.instrument():
        result = treewidth(
            instance(name), algorithm=algorithm, seed=seed, node_limit=budget
        )
    key = f'prunes{{rule="dup",solver="{algorithm}-tw"}}'
    assert result.metrics[key] == dups
    key = f'reductions{{kind="forced",solver="{algorithm}-tw"}}'
    assert result.metrics[key] == forced


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


# Every ghw-exact cell of the benchmark, with the pruning and forcing
# counters of its run. A*-ghw orders children by ``vertices()``, whose set
# order depends on the hash seed for str labels, and b08's min-fill
# incumbent does too; each seed therefore runs in a fresh interpreter
# with ``PYTHONHASHSEED = seed``, as the benchmark runs it.
GHW_CELLS = (
    ("bb", "b06", 1000),
    ("astar", "b06", 150),
    ("bb", "b08", 150),
    ("bb", "grid2d_5", None),
    ("astar", "grid2d_4", None),
)

_BB = 'prunes{{rule="{}",solver="bb-ghw"}}'
_ASTAR = 'prunes{{rule="{}",solver="astar-ghw"}}'
_BB_FORCED = 'reductions{kind="forced",solver="bb-ghw"}'
_ASTAR_FORCED = 'reductions{kind="forced",solver="astar-ghw"}'


def _bb(incumbent, lb, pr1, pr2, forced):
    return {
        _BB.format("incumbent"): incumbent,
        _BB.format("lb"): lb,
        _BB.format("pr1"): pr1,
        _BB.format("pr2"): pr2,
        _BB_FORCED: forced,
    }


def _astar(pr2, ub, forced):
    return {_ASTAR.format("pr2"): pr2, _ASTAR.format("ub"): ub, _ASTAR_FORCED: forced}


#: seed -> cell -> [lb, ub, nodes, counters], read at the parent commit.
#: A* runs PR2 and forcing only on the children it pops (lazy evaluation),
#: so its ``pr2`` and ``forced`` counters count those, not every child
#: generated; brackets and node counts are those of eager evaluation. The
#: budget is tested just before a state is charged, so the children popped
#: after the budget ran out are evaluated (and counted) too. Both searches
#: run PR2 only on a child that survives its bound and is not forced, so
#: ``pr2`` counts the grandchildren of expanded, unforced children.
GHW_PINS = {
    0: {
        "bb:b06": [2, 4, 1000, _bb(9586, 0, 0, 4808, 131)],
        "astar:b06": [2, 4, 150, _astar(3798, 585, 12)],
        "bb:b08": [2, 6, 150, _bb(784, 0, 0, 5205, 47)],
        "bb:grid2d_5": [3, 3, 155, _bb(651, 14, 1, 1227, 2)],
        "astar:grid2d_4": [3, 3, 12, _astar(12, 20, 3)],
    },
    7: {
        "bb:b06": [2, 4, 1000, _bb(9586, 0, 0, 4808, 131)],
        "astar:b06": [2, 4, 150, _astar(3211, 555, 12)],
        "bb:b08": [3, 5, 150, _bb(923, 0, 0, 5179, 47)],
        "bb:grid2d_5": [3, 3, 155, _bb(651, 14, 1, 1227, 2)],
        # certified at the root: tw-ksc-width meets the incumbent
        "astar:grid2d_4": [3, 3, 0, {}],
    },
}

_RUNNER = """
import json, sys
from repro import obs
from repro.core.api import generalized_hypertree_width
from repro.instances.registry import instance

seed = int(sys.argv[1])
out = {}
for algorithm, name, budget in json.loads(sys.argv[2]):
    with obs.instrument():
        result = generalized_hypertree_width(
            instance(name), algorithm=algorithm, seed=seed, node_limit=budget
        )
    counters = {
        key: value
        for key, value in result.metrics.items()
        if key.startswith(("prunes{", "reductions{")) and value
    }
    out[f"{algorithm}:{name}"] = [
        result.lower_bound, result.upper_bound, result.nodes_expanded, counters
    ]
print(json.dumps(out))
"""


@pytest.mark.parametrize("seed", SEEDS)
def test_ghw_exact_cells_and_counters(seed):
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(seed), json.dumps(GHW_CELLS)],
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    expected = {
        cell: [lb, ub, nodes, {k: v for k, v in counters.items() if v}]
        for cell, (lb, ub, nodes, counters) in GHW_PINS[seed].items()
    }
    assert json.loads(completed.stdout) == expected
