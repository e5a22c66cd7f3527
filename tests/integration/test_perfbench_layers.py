"""The benchmark's layer tracer still finds every call site it wraps.

``perfbench/layers.py`` wraps each layer at the name its caller binds,
so moving or renaming a binding breaks the traced benchmark. This test
installs the tracer in a fresh interpreter (the wrapping is
process-wide), runs a tiny GA-ghw through it, and checks that every
wrap target resolved and that GA fitness recorded greedy set covers —
the site the ``ghw-heuristic`` workload requires. Tiny runs of the four
exact searches must likewise reach the lower and upper bounds and the
reductions, and the two ghw searches the exact covers (the ``ghw-exact``
site), through the bindings the tracer wraps: a search that calls one of
them through an unwrapped binding records nothing at that site.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

RUNNER = """
import json
from layers import WRAP_TARGETS, LayerTracer
from repro.genetic.engine import GAParameters
from repro.genetic.ga_ghw import ga_ghw
from repro.instances.registry import instance

tracer = LayerTracer()
tracer.install()
tracer.enabled = True
ga_ghw(instance("adder_6"), parameters=GAParameters(population_size=6, max_iterations=2))
tracer.enabled = False
tracer.check_required("ghw-heuristic")
print(json.dumps({"targets": len(WRAP_TARGETS), "calls": tracer.calls}))
"""


EXACT_RUNNER = """
import json
from layers import WRAP_TARGETS, LayerTracer
from repro.instances.registry import instance
from repro.search.astar_ghw import astar_ghw
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth

tracer = LayerTracer()
tracer.install()
tracer.enabled = True
calls = {}
for search, name, width in (
    (branch_and_bound_ghw, "grid2d_3", 2),
    (astar_ghw, "grid2d_3", 2),
    (branch_and_bound_treewidth, "myciel3", 5),
    (astar_treewidth, "myciel3", 5),
):
    before = dict(tracer.calls)
    assert search(instance(name)).value == width
    calls[search.__name__] = {
        site: tracer.calls[site] - before[site] for site in tracer.calls
    }
tracer.enabled = False
tracer.check_required("ghw-exact")
print(json.dumps({"targets": len(WRAP_TARGETS), "calls": calls}))
"""


@lru_cache(maxsize=None)
def _run_traced(runner: str) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
    )
    completed = subprocess.run(
        [sys.executable, "-c", runner],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_layer_tracer_resolves_every_binding_and_sees_greedy_covers():
    report = _run_traced(RUNNER)
    assert report["targets"] > 0
    assert report["calls"]["setcover.greedy"] > 0
    assert report["calls"]["decompositions"] > 0


def test_layer_tracer_sees_exact_covers_and_bounds_of_both_ghw_searches():
    report = _run_traced(EXACT_RUNNER)
    assert report["targets"] > 0
    for search in ("branch_and_bound_ghw", "astar_ghw"):
        calls = report["calls"][search]
        assert calls["setcover.exact"] > 0, search
        assert calls["bounds.lower"] > 0, search


def test_layer_tracer_attributes_bounds_and_reductions_to_every_exact_search():
    calls = _run_traced(EXACT_RUNNER)["calls"]
    for search in (
        "branch_and_bound_treewidth",
        "astar_treewidth",
        "branch_and_bound_ghw",
        "astar_ghw",
    ):
        for site in ("bounds.lower", "bounds.upper", "reductions"):
            assert calls[search][site] > 0, (search, site)
