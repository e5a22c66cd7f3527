"""End-to-end instrumentation: solvers, runner telemetry, CLI flags.

The unit suites in ``tests/obs`` prove the registry/tracer/report pieces
in isolation; this module proves the *wiring* — that real solver runs
under ``obs.instrument()`` emit the documented series, that the
experiment runner's telemetry file validates, and that the CLI surfaces
the same data.
"""

from __future__ import annotations

from repro import obs
from repro.cli import main
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.instances.dimacs_like import queen_graph
from repro.instances.hypergraphs import grid2d
from repro.obs.report import read_jsonl, validate_report
from repro.search.bb_ghw import branch_and_bound_ghw
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.search.components import treewidth_by_components


class TestSolverCounters:
    def test_bb_ghw_emits_prune_and_cache_counters(self):
        """On the 3x3 grid both PR1 and PR2 fire, and the exact set-cover
        cache sees both hits and misses (cold cache: the cover cache is
        process-wide, so earlier tests may have warmed this family)."""
        from repro.kernels.cache import cover_cache

        cover_cache().clear()
        with obs.instrument() as ins:
            result = branch_and_bound_ghw(grid2d(3, 3))
        snapshot = ins.metrics.snapshot()
        assert result.optimal and result.value == 2
        assert snapshot['nodes{solver="bb-ghw"}'] > 0
        assert snapshot['prunes{rule="pr1",solver="bb-ghw"}'] > 0
        assert snapshot['prunes{rule="pr2",solver="bb-ghw"}'] > 0
        assert snapshot['setcover_cache{event="hit"}'] > 0
        assert snapshot['setcover_cache{event="miss"}'] > 0
        assert snapshot['setcover{algo="greedy",event="call"}'] > 0

    def test_exact_cover_counts_kernel_runs_as_misses(self):
        """``setcover_cache{event}`` counts a miss whenever the cover
        kernel runs, also when a windowed call returns at once without
        searching, and a hit whenever the solver's memo or the cover
        cache answers."""
        from repro.kernels.cache import cover_cache
        from repro.setcover.exact import ExactSetCoverSolver

        cover_cache().clear()
        # Greedy takes a (4 vertices) and then two more edges; b and c
        # cover the bag with two, the size-profile floor.
        edges = {"a": {1, 2, 3, 4}, "b": {1, 2, 5}, "c": {3, 4, 6}}
        hard = {1, 2, 3, 4, 5, 6}
        solver = ExactSetCoverSolver(edges)
        with obs.instrument() as ins:
            # Greedy (3) <= g: the kernel returns it without a search node.
            assert len(solver.cover(hard, 3, None)) == 3
            snapshot = ins.metrics.snapshot()
            assert snapshot['setcover_cache{event="miss"}'] == 1
            assert 'setcover_cache{event="hit"}' not in snapshot
            assert "setcover_nodes" not in snapshot
            # The memo holds a cover <= g: a hit.
            assert len(solver.cover(hard, 3, 5)) == 3
            # Below its proven floor (2) nothing is settled: the search runs.
            assert len(solver.cover(hard, 1, None)) == 2
            snapshot = ins.metrics.snapshot()
            assert snapshot['setcover_cache{event="hit"}'] == 1
            assert snapshot['setcover_cache{event="miss"}'] == 2
            assert snapshot["setcover_nodes"] > 0
            # The exact cover went to the cover cache: a fresh solver's
            # first lookup is a hit there.
            assert len(ExactSetCoverSolver(edges).cover(hard)) == 2
            snapshot = ins.metrics.snapshot()
            assert snapshot['setcover_cache{event="hit"}'] == 2
            assert snapshot['setcover_cache{event="miss"}'] == 2

    def test_result_carries_metrics_snapshot(self):
        with obs.instrument():
            result = branch_and_bound_ghw(grid2d(3, 3))
        assert result.metrics['nodes{solver="bb-ghw"}'] == result.nodes_expanded

    def test_uninstrumented_run_carries_no_metrics(self):
        result = branch_and_bound_ghw(grid2d(3, 3))
        assert result.metrics == {}

    def test_span_tree_has_solver_phases(self):
        with obs.instrument() as ins:
            branch_and_bound_ghw(grid2d(3, 3))
        (root,) = ins.tracer.tree()
        assert root["name"] == "bb-ghw"
        child_names = [child["name"] for child in root.get("children", [])]
        assert "root_bounds" in child_names
        assert "search" in child_names

    def test_bb_tw_counts_every_expansion(self):
        with obs.instrument() as ins:
            result = branch_and_bound_treewidth(grid2d(3, 3).primal_graph())
        assert (
            ins.metrics.snapshot()['nodes{solver="bb-tw"}']
            == result.nodes_expanded
        )


class TestComponentBudget:
    @staticmethod
    def two_component_graph() -> Graph:
        """A queen4 board plus a disjoint triangle: two components, the
        first hard enough that one search node never finishes it."""
        graph = queen_graph(4)
        graph.add_edge("x", "y")
        graph.add_edge("y", "z")
        graph.add_edge("x", "z")
        return graph

    def test_tiny_node_budget_sets_exhausted_flag(self):
        graph = self.two_component_graph()
        with obs.instrument() as ins:
            result = treewidth_by_components(
                graph, branch_and_bound_treewidth, node_limit=1
            )
        assert result.budget_exhausted
        assert (
            ins.metrics.snapshot()['budget_exhausted{scope="components"}'] >= 1
        )
        assert not result.optimal
        assert result.upper_bound >= result.lower_bound

    def test_ample_budget_leaves_flag_unset(self):
        graph = self.two_component_graph()
        result = treewidth_by_components(
            graph, branch_and_bound_treewidth, node_limit=10**6
        )
        assert result.optimal
        assert not result.budget_exhausted


class TestRunnerTelemetry:
    def test_telemetry_out_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            instances=["adder_3"],
            measure="ghw",
            algorithms=["bb", "sa"],
            time_limit=5.0,
        )
        table = run_experiment(spec, telemetry_out=str(path))
        reports = read_jsonl(path)
        assert [r.solver for r in reports] == ["bb", "sa"]
        assert reports == table.reports
        for report in reports:
            validate_report(report.to_dict())
        exact, heuristic = reports
        assert exact.status == "optimal" and exact.value == 2
        assert heuristic.status == "heuristic"
        assert heuristic.upper_bound is not None

    def test_collect_reports_without_file(self):
        spec = ExperimentSpec(
            instances=["adder_3"], measure="ghw", algorithms=["bb"]
        )
        table = run_experiment(spec, collect_reports=True)
        (report,) = table.reports
        assert report.counters  # the bb run recorded real series

    def test_no_telemetry_by_default(self):
        spec = ExperimentSpec(
            instances=["adder_3"], measure="ghw", algorithms=["bb"]
        )
        assert run_experiment(spec).reports == []


class TestCliTelemetry:
    def test_metrics_flag_prints_series_to_stderr(self, capsys):
        code = main(
            ["--instance", "adder_3", "--measure", "ghw",
             "--algorithm", "bb", "--metrics"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "width=2" in captured.out
        assert 'nodes{solver="bb-ghw"}' in captured.err

    def test_trace_flag_prints_span_tree_to_stderr(self, capsys):
        code = main(
            ["--instance", "adder_3", "--measure", "ghw",
             "--algorithm", "bb", "--trace"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "bb-ghw" in captured.err
        assert "root_bounds" in captured.err

    def test_telemetry_out_appends_valid_report(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        for algorithm in ("bb", "sa"):
            code = main(
                ["--instance", "adder_3", "--measure", "ghw",
                 "--algorithm", algorithm, "--telemetry-out", str(path)]
            )
            assert code == 0
        reports = read_jsonl(path)
        assert [r.solver for r in reports] == ["bb", "sa"]
        for report in reports:
            validate_report(report.to_dict())
        assert reports[0].meta["seed"] == 0
        assert "backend" not in reports[0].meta
        assert reports[0].meta["jobs"] == 1
        assert "hits" in reports[0].meta["cover_cache"]

    def test_unwritable_telemetry_path_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["--instance", "adder_3", "--measure", "ghw",
             "--algorithm", "bb", "--telemetry-out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write telemetry" in captured.err

    def test_plain_run_prints_nothing_extra(self, capsys):
        code = main(
            ["--instance", "adder_3", "--measure", "ghw", "--algorithm", "bb"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
