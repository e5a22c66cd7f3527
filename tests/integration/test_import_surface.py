"""The public import surface, and what a run loads.

Package ``__init__``s re-export their names lazily (``repro._lazy``), so
each check runs in a fresh interpreter: an earlier test that imported a
submodule would hide a name that no longer resolves. Every name in every
package's ``__all__`` must resolve through ``getattr`` and through
``from package import name`` and be listed by ``dir``; the four names
that are also submodule names must resolve to their functions whichever
is imported first. A benchmark pass's imports must leave the modules
only some entry points use unloaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py")
)

#: Exported names that are also the names of submodules.
SHADOWED = [
    ("repro.search", "astar_ghw"),
    ("repro.genetic", "ga_ghw"),
    ("repro.csp", "adaptive_consistency"),
    ("repro.localsearch", "simulated_annealing"),
]

#: What ``perfbench/worker.py`` imports before its first timed cell.
WORKER_IMPORTS = [
    "repro",
    "repro.core.api",
    "repro.genetic.engine",
    "repro.genetic.ga_ghw",
    "repro.genetic.ga_tw",
    "repro.kernels.cache",
    "repro.instances.registry",
    "repro.verify.certify",
    "repro.obs",
    "repro.hypergraphs.hypergraph",
]

#: Modules such a pass must not load: packages and modules that only
#: some entry points use, and the standard library they pull in.
UNLOADED_PACKAGES = [
    "repro.portfolio",
    "repro.localsearch",
    "repro.csp",
    "repro.bayes",
    "repro.experiments",
]
UNLOADED_MODULES = [
    "repro.verify.conformance",
    "repro.verify.generators",
    "repro.verify.shrink",
    "repro.verify.cli",
    "repro.kernels.parallel",
    "repro.genetic.saiga",
    "repro.genetic.weighted",
    "repro.decompositions.io",
    "repro.decompositions.hypertree",
    "repro.decompositions.leaf_normal_form",
    "repro.hypergraphs.io",
    "repro.instances.hyperbench",
    "repro.obs.report",
    "repro.obs.render",
    "repro.setcover.fractional",
    "concurrent.futures",
    "multiprocessing",
    "socket",
    "subprocess",
    "json",
]


def _fresh(code: str, *args: str):
    """Run ``code`` with ``args`` in a new interpreter; the JSON it
    prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


_SURFACE = """
import importlib, json, sys, types
package = importlib.import_module(sys.argv[1])
first = sys.argv[2]
problems = [n for n in package.__all__ if n not in dir(package)]
for name in package.__all__:
    if first == "getattr":
        value = getattr(package, name)
        scope = {}
        exec(f"from {package.__name__} import {name} as found", scope)
        other = scope["found"]
    else:
        scope = {}
        exec(f"from {package.__name__} import {name} as found", scope)
        value = scope["found"]
        other = getattr(package, name)
    if value is not other or isinstance(value, types.ModuleType):
        problems.append(name)
print(json.dumps(problems))
"""


@pytest.mark.parametrize("first", ["getattr", "from"])
@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package, first):
    assert _fresh(_SURFACE, package, first) == []


@pytest.mark.parametrize("package,name", SHADOWED, ids=[n for _, n in SHADOWED])
def test_names_sharing_a_submodule_name_resolve_to_the_function(package, name):
    submodule = f"{package}.{name}"
    report = _fresh(
        f"""
import importlib, json, types
package = importlib.import_module({package!r})
before = getattr(package, {name!r})
import {submodule}
from {package} import {name} as after
module = importlib.import_module({submodule!r})
print(json.dumps([
    before is after is getattr(module, {name!r}),
    isinstance(after, types.FunctionType),
]))
"""
    )
    assert report == [True, True]
    # the other order: the submodule first, then the package's name
    report = _fresh(
        f"""
import json, types
import {submodule}
from {package} import {name}
print(json.dumps(isinstance({name}, types.FunctionType)))
"""
    )
    assert report is True


def test_a_benchmark_pass_loads_only_what_it_uses():
    loaded = _fresh(
        f"""
import importlib, sys
for name in {WORKER_IMPORTS!r}:
    importlib.import_module(name)
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""
    )
    unexpected = [
        module
        for module in loaded
        if module in UNLOADED_MODULES
        or module.startswith(tuple(f"{p}." for p in UNLOADED_PACKAGES))
        or module in UNLOADED_PACKAGES
    ]
    assert unexpected == []
