"""BB-ghw's per-node bound is settled by the root ordering, not a minor walk.

On b06 a child is cut only when the remainder's treewidth bound reaches
a k-set-cover threshold far above the remainders' treewidth, so the
windows BB-ghw asks all have the answer ``h <= floor``. The root
incumbent ordering's width on each remainder proves that answer
(DESIGN.md, "Windowed lower bounds"), and the minor walk is not run.
These tests fail if the check stops firing — every child would walk
again — or if it changes what the search does.
"""

from __future__ import annotations

import pytest

import repro.bounds.ghw_lower as ghw_lower
import repro.bounds.lower as lower
from repro import obs
from repro.core.api import generalized_hypertree_width
from repro.instances.registry import instance

BUDGET = 100


def _run(monkeypatch: pytest.MonkeyPatch) -> tuple:
    """BB-ghw on b06 at seed 0 and ``BUDGET`` nodes; the number of
    minor walks it ran, and everything its result reports."""
    walks = []
    walk = lower.minor_lower_bound

    def spy(*args, **kwargs):
        walks.append(kwargs.get("floor"))
        return walk(*args, **kwargs)

    monkeypatch.setattr(lower, "minor_lower_bound", spy)
    with obs.instrument():
        result = generalized_hypertree_width(
            instance("b06"), algorithm="bb", seed=0, node_limit=BUDGET
        )
    return len(walks), (
        result.lower_bound,
        result.upper_bound,
        result.nodes_expanded,
        list(result.ordering),
        result.metrics,
    )


def test_bb_ghw_b06_children_do_not_walk(monkeypatch):
    walks, (lb, ub, nodes, _ordering, _metrics) = _run(monkeypatch)
    assert (lb, ub, nodes) == (2, 4, BUDGET)
    # Without the check every child bound walks: 61 walks at this budget.
    assert walks <= 3


def test_the_check_changes_nothing_the_search_reports(monkeypatch):
    _walks, checked = _run(monkeypatch)
    monkeypatch.setattr(ghw_lower, "bit_width_at_most", lambda *args: False)
    walks, walked = _run(monkeypatch)
    assert walks > 50  # the check really was off
    assert walked == checked
