"""The benchmark's layer tracer still finds every call site it wraps.

``perfbench/layers.py`` wraps each layer at the name its caller binds,
so moving or renaming a binding breaks the traced benchmark. This test
installs the tracer in a fresh interpreter (the wrapping is
process-wide), runs a tiny GA-ghw through it, and checks that every
wrap target resolved and that GA fitness recorded greedy set covers —
the site the ``ghw-heuristic`` workload requires. A tiny BB-ghw and
A*-ghw must likewise reach the exact covers (the ``ghw-exact`` site)
and the per-node lower bounds through the bindings the tracer wraps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
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
from repro.search.bb_ghw import branch_and_bound_ghw

tracer = LayerTracer()
tracer.install()
tracer.enabled = True
calls = {}
for search in (branch_and_bound_ghw, astar_ghw):
    before = dict(tracer.calls)
    assert search(instance("grid2d_3")).value == 2
    calls[search.__name__] = {
        site: tracer.calls[site] - before[site] for site in tracer.calls
    }
tracer.enabled = False
tracer.check_required("ghw-exact")
print(json.dumps({"targets": len(WRAP_TARGETS), "calls": calls}))
"""


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
