"""Regression: branch and bound ran out of Python stack on deep searches.

BB-tw and BB-ghw walked elimination-ordering prefixes with one recursive
call per level, so a search deeper than the interpreter's recursion limit
raised ``RecursionError`` instead of returning its bracket: at the default
limit, ``treewidth(instance("grid33"), algorithm="bb", node_limit=1200)``
did. The walk now keeps its path on a list of frames.

The test lowers the limit to 120 frames above the caller's depth, so a
240-vertex grid is deep enough, and runs each exact search in a fresh
interpreter so the limit binds only there. Every search must return a
sound bracket whose witness ordering certifies its upper bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_RUNNER = """
import json, sys
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import grid_graph
from repro.search.astar_ghw import astar_ghw
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.verify.certify import certify_ghw_witness, certify_tw_witness

graph = grid_graph(6, 40)
hypergraph = Hypergraph(vertices=sorted(graph.vertices()))
for i, edge in enumerate(sorted(sorted(e) for e in graph.edges())):
    hypergraph.add_edge(f"e{i}", edge)
searches = {
    "bb-tw": (branch_and_bound_treewidth, graph, certify_tw_witness),
    "astar-tw": (astar_treewidth, graph, certify_tw_witness),
    "bb-ghw": (branch_and_bound_ghw, hypergraph, certify_ghw_witness),
    "astar-ghw": (astar_ghw, hypergraph, certify_ghw_witness),
}


def depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        n, frame = n + 1, frame.f_back
    return n


default = sys.getrecursionlimit()
results = {}
for name, (search, instance, _certify) in searches.items():
    sys.setrecursionlimit(depth() + 120)
    try:
        results[name] = search(instance, node_limit=400)
    except RecursionError:
        results[name] = None
    finally:
        sys.setrecursionlimit(default)
out = {}
for name, result in results.items():
    if result is None:
        out[name] = "RecursionError"
        continue
    _search, instance, certify = searches[name]
    witness = certify(instance, result.ordering, result.upper_bound, strict=True)
    out[name] = [result.lower_bound, result.upper_bound, witness.ok]
print(json.dumps(out))
"""

#: tw(grid 6 x 40) = 6. Eliminating it column by column covers every bag
#: with 4 of its binary edges, and a GHD of width k gives a tree
#: decomposition of width at most 2k - 1, so ghw = 4.
WIDTH = {"tw": 6, "ghw": 4}


def test_exact_searches_return_brackets_below_a_low_recursion_limit():
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    out = json.loads(completed.stdout)
    assert set(out) == {"bb-tw", "astar-tw", "bb-ghw", "astar-ghw"}
    for name, outcome in out.items():
        assert outcome != "RecursionError", name
        lower, upper, certified = outcome
        assert lower <= WIDTH[name.split("-")[1]] <= upper, name
        assert certified, name
