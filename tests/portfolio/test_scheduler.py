"""Portfolio races: the PR's acceptance criteria.

* a 4-strategy race under one shared deadline is at least as good as
  every member run alone on the same budget (ub no worse than any
  member's ub, lb no worse than any member's lb);
* the race stops early the moment lb == ub;
* a race killed by its deadline and resumed from its checkpoint
  directory reaches a same-or-better incumbent;
* process mode produces the same certified result with real worker
  processes and nested RunReports.
"""

import json

import pytest

from repro import obs
from repro.instances.hypergraphs import bridge, grid2d
from repro.obs.report import validate_report
from repro.portfolio import (
    PortfolioSpec,
    parse_strategies,
    portfolio_report,
    resume_portfolio,
    run_portfolio,
    run_strategy,
)

STRATEGIES = "bb,ga,sa,tabu"
BUDGET = 5.0


class TestInlineRace:
    def test_bounds_dominate_every_member(self):
        instance = bridge(3)
        spec = PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies(STRATEGIES, "ghw"),
            time_limit=BUDGET,
            mode="inline",
        )
        race = run_portfolio(instance, spec)

        for member in parse_strategies(STRATEGIES, "ghw"):
            alone = run_strategy(member, instance, "ghw", time_limit=BUDGET)
            if alone.upper_bound is not None:
                assert race.upper_bound <= alone.upper_bound
            if alone.lower_bound is not None:
                assert race.lower_bound >= alone.lower_bound

    def test_early_stop_when_bounds_meet(self):
        race = run_portfolio(
            bridge(3),
            PortfolioSpec(
                measure="ghw",
                strategies=parse_strategies(STRATEGIES, "ghw"),
                time_limit=BUDGET,
                mode="inline",
            ),
        )
        assert race.optimal and race.value == 2
        assert race.stop_reason == "closed"
        assert race.early_stopped
        assert race.elapsed < BUDGET
        # the witness ordering is a permutation of the vertex set
        assert sorted(race.ordering) == sorted(bridge(3).vertices())

    def test_heuristics_feed_the_exact_search(self):
        """The exact member prunes against heuristic bounds: certification
        can come from the *portfolio* (heuristic ub + exact lb) even when
        no single worker certified."""
        race = run_portfolio(
            bridge(3),
            PortfolioSpec(
                measure="ghw",
                strategies=parse_strategies(STRATEGIES, "ghw"),
                time_limit=BUDGET,
                mode="inline",
            ),
        )
        assert race.upper_source is not None
        assert race.lower_source is not None

    def test_tw_race(self):
        from repro.instances.dimacs_like import grid_graph

        race = run_portfolio(
            grid_graph(4),
            PortfolioSpec(
                measure="tw",
                strategies=parse_strategies(STRATEGIES, "tw"),
                time_limit=BUDGET,
                mode="inline",
            ),
        )
        assert race.optimal and race.value == 4

    def test_report_nests_and_validates(self):
        with obs.instrument() as ins:
            race = run_portfolio(
                bridge(3),
                PortfolioSpec(
                    measure="ghw",
                    strategies=parse_strategies("bb,ga", "ghw"),
                    time_limit=BUDGET,
                    mode="inline",
                    instance_name="bridge_3",
                ),
            )
            report = portfolio_report(
                ins, race, instance_name="bridge_3", meta={"mode": "inline"}
            )
        data = report.to_dict()
        validate_report(data)  # raises on any schema violation
        assert data["solver"] == "portfolio"
        assert len(data["workers"]) == 2
        assert {w["solver"] for w in data["workers"]} == {"bb", "ga"}
        assert data["meta"]["stop_reason"] == "closed"


class TestCheckpointResume:
    def test_killed_race_resumes_same_or_better(self, tmp_path):
        instance = grid2d(4)
        spec = PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies("ga,sa,tabu", "ghw"),
            time_limit=0.05,  # far too little: the deadline kills the race
            mode="inline",
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=0.0,
        )
        first = run_portfolio(instance, spec)
        assert first.stop_reason == "deadline"
        assert (tmp_path / "manifest.json").exists()

        resumed = resume_portfolio(instance, str(tmp_path), time_limit=BUDGET)
        # the resumed race starts from the checkpointed incumbent, so it
        # can only match or improve it
        if first.upper_bound is not None:
            assert resumed.upper_bound <= first.upper_bound
        assert resumed.upper_bound is not None

    def test_resume_from_spec_with_legacy_backend_key(self, tmp_path):
        # checkpoints written before the fitness-kernel knob was removed
        # carry a "backend" key in every strategy spec; resume ignores it
        instance = grid2d(4)
        spec = PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies("ga,sa", "ghw"),
            time_limit=0.05,
            mode="inline",
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=0.0,
        )
        first = run_portfolio(instance, spec)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert all("backend" not in s for s in manifest["strategies"])
        for strategy in manifest["strategies"]:
            strategy["backend"] = "bitset"
        manifest_path.write_text(json.dumps(manifest))

        resumed = resume_portfolio(instance, str(tmp_path), time_limit=BUDGET)
        assert [w.name for w in resumed.workers] == ["ga", "sa"]
        assert all(w.status != "error" for w in resumed.workers)
        if first.upper_bound is not None:
            assert resumed.upper_bound <= first.upper_bound
        assert resumed.upper_bound is not None

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resume_portfolio(bridge(3), str(tmp_path / "void"))

    def test_exact_member_restart_prunes_from_checkpoint(self, tmp_path):
        instance = bridge(3)
        spec = PortfolioSpec(
            measure="ghw",
            strategies=parse_strategies("bb,ga", "ghw"),
            time_limit=BUDGET,
            mode="inline",
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=0.0,
        )
        first = run_portfolio(instance, spec)
        assert first.optimal
        # resuming a finished race still works and stays optimal: the
        # incumbent is seeded from the snapshots and closes immediately
        resumed = resume_portfolio(instance, str(tmp_path), time_limit=BUDGET)
        assert resumed.optimal and resumed.value == first.value


class TestProcessRace:
    def test_process_mode_certifies_with_nested_reports(self):
        race = run_portfolio(
            bridge(3),
            PortfolioSpec(
                measure="ghw",
                strategies=parse_strategies(STRATEGIES, "ghw"),
                time_limit=30.0,
                mode="process",
                instance_name="bridge_3",
            ),
        )
        assert race.optimal and race.value == 2
        assert race.stop_reason == "closed"
        reported = {w.name for w in race.workers}
        assert reported == {"bb", "ga", "sa", "tabu"}
        assert len(race.worker_reports) == 4
        for worker_report in race.worker_reports:
            validate_report(worker_report)

    def test_process_mode_deadline(self, tmp_path):
        race = run_portfolio(
            grid2d(5),
            PortfolioSpec(
                measure="ghw",
                strategies=parse_strategies("ga,sa", "ghw"),
                time_limit=0.3,
                mode="process",
                checkpoint_dir=str(tmp_path),
                checkpoint_interval=0.0,
                grace=10.0,
            ),
        )
        assert race.stop_reason in ("deadline", "closed")
        # every worker flushed a final message despite the cancellation
        assert {w.name for w in race.workers} == {"ga", "sa"}
