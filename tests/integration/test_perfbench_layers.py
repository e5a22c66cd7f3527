"""The benchmark's layer tracer still finds every call site it wraps.

``perfbench/layers.py`` wraps each layer at the name its caller binds,
so moving or renaming a binding breaks the traced benchmark. This test
installs the tracer in a fresh interpreter (the wrapping is
process-wide), runs a tiny GA-ghw through it, and checks that every
wrap target resolved and that GA fitness recorded greedy set covers —
the site the ``ghw-heuristic`` workload requires.
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


def test_layer_tracer_resolves_every_binding_and_sees_greedy_covers():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
    )
    completed = subprocess.run(
        [sys.executable, "-c", RUNNER],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["targets"] > 0
    assert report["calls"]["setcover.greedy"] > 0
    assert report["calls"]["decompositions"] > 0
