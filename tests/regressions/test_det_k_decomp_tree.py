"""Regression: det-k-decomp left orphan nodes behind a failed separator.

When a separator's first child components decomposed and a later one
failed, the nodes built for the earlier children stayed in the result,
so on some hash seeds the decomposition of this ghw-2 hypergraph was
not a tree and ``det_k_decomp(h, 2)`` raised ``DecompositionError``.
Set iteration order decides which separator is tried first, so the
instance runs in one fresh interpreter per ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

EDGES = {
    "e1": {1, 6, 7, 11},
    "e5": {2, 3, 8, 11},
    "e6": {4, 6, 8},
    "e7": {3, 8, 10},
    "e8": {0, 1, 5, 7},
    "e9": {0, 4, 5, 10},
    "e10": {1, 4, 7, 10},
}

_RUNNER = f"""
from repro.decompositions.hypertree import det_k_decomp, hypertree_width
from repro.hypergraphs.hypergraph import Hypergraph

h = Hypergraph({EDGES!r})
assert det_k_decomp(h, 1) is None
decomposition = det_k_decomp(h, 2)
decomposition.validate(h)
assert decomposition.width() == 2
width, witness = hypertree_width(h)
witness.validate(h)
assert width == 2
"""


@pytest.mark.parametrize("hash_seed", range(8))
def test_det_k_decomp_builds_a_tree(hash_seed):
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
