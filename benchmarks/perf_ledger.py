"""Schema check for ``BENCH_perfbench.json``, the repo benchmark's perf ledger.

Every change that claims a speedup on the repo benchmark
(``perfbench/run.py``) records one entry per workload it measured:
the change's ``pr`` number and ``commit`` (``null`` until the change
has one), the ``parent`` commit it was measured against, the perfbench
``workload``, the ``seeds`` and number of alternating parent/change
``pairs`` behind the medians, and ``before``/``after`` blocks holding the
median ``pass_s`` (reference-host seconds) and ``work_per_s``, plus
``ub_width_sum`` per seed, and optionally the median ``setup_s``
(reference-host seconds) and ``peak_rss_mb``. A median or seed list the
original measurement did not record is ``null`` or empty. ``before`` is ``null``
for the entry that introduced the benchmark. ``source`` says where the
numbers come from. A top-level ``units`` string states the units.

Usage::

    python benchmarks/perf_ledger.py --validate BENCH_perfbench.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA = "perfbench-ledger/1"
WORKLOADS = ("tw-exact", "ghw-exact", "ghw-heuristic")
ENTRY_KEYS = {
    "pr", "commit", "parent", "workload", "seeds", "pairs",
    "before", "after", "source",
}
MEDIAN_KEYS = {"pass_s", "work_per_s", "ub_width_sum"}
OPTIONAL_MEDIAN_KEYS = {"setup_s", "peak_rss_mb"}
_COMMIT = re.compile(r"[0-9a-f]{7,40}")


def _check_medians(where: str, block, seeds: list[int]) -> list[str]:
    if not isinstance(block, dict) or not (
        MEDIAN_KEYS <= set(block) <= MEDIAN_KEYS | OPTIONAL_MEDIAN_KEYS
    ):
        return [
            f"{where}: keys must be {sorted(MEDIAN_KEYS)}, "
            f"optionally with {sorted(OPTIONAL_MEDIAN_KEYS)}"
        ]
    problems = []
    for key in ("pass_s", "work_per_s", *sorted(OPTIONAL_MEDIAN_KEYS & set(block))):
        value = block[key]
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or value <= 0
        ):
            problems.append(f"{where}.{key}: must be a positive number or null")
    widths = block["ub_width_sum"]
    if not isinstance(widths, dict) or not all(
        seed.isdigit() and isinstance(v, int) and not isinstance(v, bool) and v >= 0
        for seed, v in widths.items()
    ):
        problems.append(f"{where}.ub_width_sum: must map seeds to widths")
    elif not {int(seed) for seed in widths} <= set(seeds):
        problems.append(f"{where}.ub_width_sum: seeds outside the entry's seeds")
    return problems


def validate_ledger(data) -> list[str]:
    """Every schema violation in a parsed ledger (empty when valid)."""
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        return [f"top level must be an object with schema {SCHEMA!r}"]
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["entries must be a non-empty list"]
    problems: list[str] = []
    last_pr = 0
    for n, entry in enumerate(entries):
        where = f"entries[{n}]"
        if not isinstance(entry, dict) or set(entry) != ENTRY_KEYS:
            problems.append(f"{where}: keys must be {sorted(ENTRY_KEYS)}")
            continue
        pr = entry["pr"]
        if not isinstance(pr, int) or pr < last_pr:
            problems.append(f"{where}.pr: must be an int, entries in PR order")
        else:
            last_pr = pr
        commit = entry["commit"]
        if commit is not None and not (
            isinstance(commit, str) and _COMMIT.fullmatch(commit)
        ):
            problems.append(f"{where}.commit: must be a hex commit id or null")
        parent = entry["parent"]
        if not (isinstance(parent, str) and _COMMIT.fullmatch(parent)):
            problems.append(f"{where}.parent: must be a hex commit id")
        if entry["workload"] not in WORKLOADS:
            problems.append(f"{where}.workload: must be one of {WORKLOADS}")
        seeds = entry["seeds"]
        if not (
            isinstance(seeds, list)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        ):
            problems.append(f"{where}.seeds: must be a list of ints")
            seeds = []
        pairs = entry["pairs"]
        if pairs is not None and not (isinstance(pairs, int) and pairs > 0):
            problems.append(f"{where}.pairs: must be a positive int or null")
        if entry["before"] is not None:
            problems += _check_medians(f"{where}.before", entry["before"], seeds)
        problems += _check_medians(f"{where}.after", entry["after"], seeds)
        if not isinstance(entry["source"], str) or not entry["source"]:
            problems.append(f"{where}.source: must be a non-empty string")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", type=Path, required=True)
    args = parser.parse_args(argv)
    problems = validate_ledger(json.loads(args.validate.read_text()))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
