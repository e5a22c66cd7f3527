"""``BENCH_perfbench.json`` keeps to the perf ledger's schema.

The ledger holds one before/after entry per workload for every change
that claimed a speedup on the repo benchmark; its schema lives in
``benchmarks/perf_ledger.py``.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _ledger_module():
    spec = importlib.util.spec_from_file_location(
        "perf_ledger", ROOT / "benchmarks" / "perf_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEDGER = _ledger_module()


def _data():
    return json.loads((ROOT / "BENCH_perfbench.json").read_text())


def test_checked_in_ledger_is_valid():
    assert LEDGER.validate_ledger(_data()) == []


def test_ledger_covers_every_workload():
    workloads = {entry["workload"] for entry in _data()["entries"]}
    assert workloads == set(LEDGER.WORKLOADS)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda e: e.pop("parent"),
        lambda e: e.update(workload="tw-heuristic"),
        lambda e: e.update(commit="not a commit"),
        lambda e: e["after"].update(pass_s=-1.0),
        lambda e: e["after"].update(ub_width_sum={"99999": 6}),
        lambda e: e.update(pr="11"),
        lambda e: e["after"].update(setup_s=0.0),
        lambda e: e["before"].update(peak_rss_mb="19 MB"),
        lambda e: e["after"].update(import_s=0.1),
    ],
    ids=[
        "missing-key", "workload", "commit", "pass_s", "ub-seed", "pr",
        "setup_s", "peak_rss_mb", "unknown-median",
    ],
)
def test_validator_rejects_corrupt_entries(corrupt):
    data = copy.deepcopy(_data())
    corrupt(data["entries"][-1])
    assert LEDGER.validate_ledger(data)


@pytest.mark.parametrize(
    "medians",
    [{}, {"setup_s": 0.105}, {"setup_s": None, "peak_rss_mb": 18.6}],
    ids=["without", "setup_s", "both"],
)
def test_validator_accepts_optional_start_up_medians(medians):
    data = copy.deepcopy(_data())
    for block in ("before", "after"):
        for key in LEDGER.OPTIONAL_MEDIAN_KEYS:
            data["entries"][-1][block].pop(key, None)
        data["entries"][-1][block].update(medians)
    assert LEDGER.validate_ledger(data) == []



def test_validator_rejects_a_null_commit_before_the_last_pr():
    # Only the last PR's entries may wait for their commit.
    data = copy.deepcopy(_data())
    data["entries"][-1]["commit"] = None
    assert LEDGER.validate_ledger(data) == []
    data["entries"][0]["commit"] = None
    assert LEDGER.validate_ledger(data) == [
        f"entries[0].commit: null is allowed only on the last PR "
        f"({data['entries'][-1]['pr']})"
    ]
