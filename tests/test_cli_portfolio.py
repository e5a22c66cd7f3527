"""CLI knobs (--jobs/--cover-cache-size) and the portfolio
subcommand."""

import json

import pytest

from repro.cli import build_parser, build_portfolio_parser, main
from repro.obs.report import validate_report


class TestKnobParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["--instance", "grid3"])
        assert not hasattr(args, "backend")
        assert args.jobs == 1
        assert args.cover_cache_size is None

    def test_explicit_values(self):
        args = build_parser().parse_args(
            [
                "--instance", "grid3",
                "--jobs", "4", "--cover-cache-size", "1024",
            ]
        )
        assert args.jobs == 4
        assert args.cover_cache_size == 1024

    def test_unknown_backend_rejected(self):
        # the fitness kernel is no longer selectable: the flag is gone
        for parser in (build_parser(), build_portfolio_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(["--instance", "grid3", "--backend", "bitset"])

    def test_jobs_must_be_positive(self, capsys):
        code = main(["--instance", "grid3", "--jobs", "0"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cover_cache_size_must_be_positive(self, capsys):
        code = main(["--instance", "grid3", "--cover-cache-size", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestKnobsInTelemetry:
    def test_knobs_land_in_report_meta(self, capsys, tmp_path):
        out = tmp_path / "runs.jsonl"
        code = main(
            [
                "--instance", "adder_3", "--measure", "ghw",
                "--algorithm", "ga", "--jobs", "1",
                "--cover-cache-size", "4096", "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text().splitlines()[-1])
        validate_report(report)
        assert "backend" not in report["meta"]
        assert report["meta"]["jobs"] == 1
        assert report["meta"]["cover_cache_size"] == 4096
        assert "hits" in report["meta"]["cover_cache"]

    def test_seed_in_meta(self, capsys, tmp_path):
        out = tmp_path / "runs.jsonl"
        code = main(
            [
                "--instance", "grid3", "--measure", "tw", "--seed", "9",
                "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text().splitlines()[-1])
        assert report["meta"]["seed"] == 9


class TestPortfolioParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_portfolio_parser().parse_args([])

    def test_defaults(self):
        args = build_portfolio_parser().parse_args(["--instance", "bridge_3"])
        assert args.mode == "process"
        assert args.strategies is None
        assert not args.resume

    def test_flags(self):
        args = build_portfolio_parser().parse_args(
            [
                "--instance", "bridge_3", "--strategies", "bb,ga",
                "--mode", "inline", "--time-limit", "2.5",
                "--checkpoint-dir", "/tmp/x", "--resume",
            ]
        )
        assert args.strategies == "bb,ga"
        assert args.mode == "inline"
        assert args.time_limit == 2.5
        assert args.resume


class TestPortfolioRuns:
    def test_inline_race_certifies(self, capsys):
        code = main(
            [
                "portfolio", "--instance", "bridge_3", "--measure", "ghw",
                "--strategies", "bb,ga", "--mode", "inline",
                "--time-limit", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "width=2 (optimal)" in out
        assert "stop=closed" in out
        assert "bb" in out and "ga" in out  # per-worker lines

    def test_telemetry_nests_worker_reports(self, capsys, tmp_path):
        out = tmp_path / "race.jsonl"
        code = main(
            [
                "portfolio", "--instance", "bridge_3", "--measure", "ghw",
                "--strategies", "bb,sa", "--mode", "inline",
                "--time-limit", "10", "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text().splitlines()[-1])
        validate_report(report)
        assert report["solver"] == "portfolio"
        assert report["meta"]["mode"] == "inline"
        assert {w["solver"] for w in report["workers"]} == {"bb", "sa"}

    def test_resume_needs_checkpoint_dir(self, capsys):
        code = main(["portfolio", "--instance", "bridge_3", "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_unknown_strategy_fails_cleanly(self, capsys):
        code = main(
            [
                "portfolio", "--instance", "bridge_3",
                "--strategies", "bb,quantum", "--mode", "inline",
            ]
        )
        assert code == 2
        assert "unknown strategy kind" in capsys.readouterr().err

    def test_ghw_on_graph_fails_cleanly(self, capsys):
        code = main(
            ["portfolio", "--instance", "grid3", "--measure", "ghw"]
        )
        assert code == 2

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoints = tmp_path / "race"
        code = main(
            [
                "portfolio", "--instance", "grid2d_4", "--measure", "ghw",
                "--strategies", "ga,sa", "--mode", "inline",
                "--time-limit", "0.05", "--checkpoint-dir", str(checkpoints),
                "--checkpoint-interval", "0",
            ]
        )
        assert code == 0
        assert (checkpoints / "manifest.json").exists()
        code = main(
            [
                "portfolio", "--instance", "grid2d_4", "--resume",
                "--checkpoint-dir", str(checkpoints), "--mode", "inline",
                "--time-limit", "5",
            ]
        )
        assert code == 0
        assert "portfolio[ghw]" in capsys.readouterr().out
