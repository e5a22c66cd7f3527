"""The child step runs PR2 only on children that survive and are not forced.

:func:`repro.search.driver._search`'s step eliminates a child, bounds
it, asks for its forced vertex and only then applies PR2, judged from
the elimination's undo record. A child its bound cuts, or whose
children are forced, never pays for PR2. A logging measure records the
hooks the step calls, with the remaining-vertex mask each saw, for
branch and bound and A* over both measures. Every ``pr2`` call must
follow, on the same state, a ``lower`` that did not cut and a
``reduce`` that forced nothing, with ``child`` the vertex just
eliminated. The wrapped search must also give the same result as the
plain one.
"""

from __future__ import annotations

import pytest

from repro.instances.registry import instance
from repro.search.bb_ghw import GhwMeasure
from repro.search.bb_tw import TreewidthMeasure
from repro.search.driver import astar, branch_and_bound

LB_METHODS = ("minor-min-width", "minor-gamma-r")


class StepLog:
    """A measure that logs ``lower``, ``reduce`` and ``pr2`` calls as
    ``(hook, alive, outcome)``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.dedup = inner.dedup
        self.working = inner.working
        self.span_attrs = inner.span_attrs
        self.events: list[tuple] = []

    def root_bounds(self, rng):
        return self.inner.root_bounds(rng)

    def bag_cost(self, child, g, limit):
        return self.inner.bag_cost(child, g, limit)

    def finish(self, g, below):
        return self.inner.finish(g, below)

    def lower(self, floor=0, limit=None):
        h = self.inner.lower(floor, limit)
        cut = limit is not None and max(floor, h) >= limit
        self.events.append(("lower", self.working.alive, cut))
        return h

    def reduce(self, low):
        reduction = self.inner.reduce(low)
        self.events.append(("reduce", self.working.alive, reduction is not None))
        return reduction

    def pr2(self, child, grandchildren):
        working = self.working
        assert working.eliminated()[-1] == child
        self.events.append(("pr2", working.alive, child))
        return self.inner.pr2(child, grandchildren)


def _outcome(result) -> tuple:
    return (
        result.lower_bound,
        result.upper_bound,
        result.nodes_expanded,
        list(result.ordering),
    )


#: Cells where both searches cut children and force some: (measure,
#: instance, node budget).
CASES = [
    ("tw", "queen5_5", 300),
    ("tw", "grid6", 300),
    ("ghw", "grid2d_5", None),
]


@pytest.mark.parametrize("search", [branch_and_bound, astar], ids=["bb", "astar"])
@pytest.mark.parametrize(
    "measure, name, budget", CASES, ids=[f"{m}-{name}" for m, name, _b in CASES]
)
def test_pr2_only_for_surviving_unforced_children(search, measure, name, budget):
    def build():
        problem = instance(name)
        if measure == "tw":
            return TreewidthMeasure(problem, LB_METHODS, True)
        return GhwMeasure(problem, LB_METHODS, True)

    logged = StepLog(build())
    result = search(logged, node_limit=budget)
    assert _outcome(result) == _outcome(search(build(), node_limit=budget))

    events = logged.events
    pr2_calls = 0
    for k, (hook, alive, _child) in enumerate(events):
        if hook != "pr2":
            continue
        pr2_calls += 1
        assert k >= 2
        assert events[k - 1] == ("reduce", alive, False)
        assert events[k - 2] == ("lower", alive, False)

    def count(wanted: str, outcome: bool) -> int:
        return sum((hook, out) == (wanted, outcome) for hook, _alive, out in events)

    # The test means something only where children were cut and forced.
    assert count("lower", True) > 0
    assert count("reduce", True) > 0
    # Each surviving child is asked ``reduce`` once; forced survivors and
    # the children of a forced parent call no ``pr2``.
    assert 0 < pr2_calls <= count("reduce", False)
