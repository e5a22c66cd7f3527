"""Tests for the repro-decompose command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.hypergraphs.io import write_dimacs, write_hypergraph
from repro.instances.dimacs_like import queen_graph


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--instance", "a", "--file", "b"]
            )


class TestRuns:
    def test_treewidth_of_named_instance(self, capsys):
        code = main(["--instance", "grid4", "--measure", "tw"])
        assert code == 0
        out = capsys.readouterr().out
        assert "width=4" in out and "optimal" in out

    def test_ghw_of_named_instance(self, capsys):
        code = main(
            ["--instance", "adder_3", "--measure", "ghw", "--algorithm", "bb"]
        )
        assert code == 0
        assert "width=2" in capsys.readouterr().out

    def test_heuristic_upper_bound(self, capsys):
        code = main(
            ["--instance", "grid4", "--measure", "tw", "--algorithm", "ga"]
        )
        assert code == 0
        assert "tw <=" in capsys.readouterr().out

    def test_ghw_ga(self, capsys, example5, tmp_path):
        path = tmp_path / "ex5.hg"
        write_hypergraph(example5, path)
        code = main(
            ["--file", str(path), "--measure", "ghw", "--algorithm", "ga"]
        )
        assert code == 0
        assert "ghw <=" in capsys.readouterr().out

    def test_dimacs_file(self, capsys, tmp_path):
        path = tmp_path / "queen.col"
        write_dimacs(queen_graph(4), path)
        code = main(["--file", str(path), "--measure", "tw"])
        assert code == 0
        assert "optimal" in capsys.readouterr().out

    def test_unknown_instance_fails_cleanly(self, capsys):
        code = main(["--instance", "zzz_404", "--measure", "tw"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ghw_on_graph_instance_fails_cleanly(self, capsys):
        code = main(["--instance", "grid3", "--measure", "ghw"])
        assert code == 2

    def test_node_limit_flag(self, capsys):
        code = main(
            [
                "--instance", "queen5_5", "--measure", "tw",
                "--node-limit", "3",
            ]
        )
        assert code == 0

    def test_hw_measure(self, capsys):
        code = main(["--instance", "adder_3", "--measure", "hw"])
        assert code == 0
        assert "hw = 2" in capsys.readouterr().out

    def test_hw_measure_on_det_k_decomp_regression(self, capsys, tmp_path):
        from repro.hypergraphs.hypergraph import Hypergraph
        from tests.regressions.test_det_k_decomp_tree import EDGES

        path = tmp_path / "detk.hg"
        write_hypergraph(Hypergraph(EDGES), path)
        code = main(["--file", str(path), "--measure", "hw"])
        assert code == 0
        assert "hw = 2" in capsys.readouterr().out

    def test_hw_on_graph_fails_cleanly(self, capsys):
        code = main(["--instance", "grid3", "--measure", "hw"])
        assert code == 2

    def test_sa_and_tabu_algorithms(self, capsys):
        for algorithm in ("sa", "tabu"):
            code = main(
                [
                    "--instance", "grid4", "--measure", "tw",
                    "--algorithm", algorithm,
                ]
            )
            assert code == 0
            assert "tw <=" in capsys.readouterr().out

    def test_output_td_file(self, capsys, tmp_path):
        out = tmp_path / "grid.td"
        code = main(
            [
                "--instance", "grid3", "--measure", "tw",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("c")
        from repro.decompositions.io import read_tree_decomposition

        decomposition = read_tree_decomposition(out)
        assert decomposition.width() == 3

    def test_output_ghd_file(self, capsys, tmp_path):
        out = tmp_path / "adder.ghd"
        code = main(
            [
                "--instance", "adder_3", "--measure", "ghw",
                "--algorithm", "bb", "--output", str(out),
            ]
        )
        assert code == 0
        from repro.decompositions.io import read_ghd

        ghd = read_ghd(out)
        assert ghd.width() == 2

    def test_output_hw_file(self, capsys, tmp_path):
        out = tmp_path / "adder_hw.ghd"
        code = main(
            [
                "--instance", "adder_3", "--measure", "hw",
                "--output", str(out),
            ]
        )
        assert code == 0
        from repro.decompositions.io import read_ghd

        assert read_ghd(out).width() == 2


class TestOutputWritesTheRunsOwnOrdering:
    """``--output`` writes the decomposition of the ordering the run just
    returned: it never runs a second search."""

    @staticmethod
    def _printed_bound(out: str) -> int:
        line = next(line for line in out.splitlines() if "<=" in line)
        return int(line.split("<=")[1].split()[0])

    @pytest.mark.parametrize("algorithm", ["sa", "tabu"])
    def test_tw_written_width_equals_printed_bound(
        self, capsys, tmp_path, algorithm
    ):
        from repro.decompositions.io import read_tree_decomposition

        out = tmp_path / "myciel5.td"
        code = main(
            [
                "--instance", "myciel5", "--measure", "tw",
                "--algorithm", algorithm, "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = self._printed_bound(capsys.readouterr().out)
        assert read_tree_decomposition(out).width() == printed

    @pytest.mark.parametrize("algorithm", ["sa", "tabu"])
    def test_ghw_written_width_at_most_printed_bound(
        self, capsys, tmp_path, algorithm
    ):
        # the written GHD covers the run's ordering exactly, so it can
        # only beat the greedy-cover bound the heuristic printed
        from repro.decompositions.io import read_ghd

        out = tmp_path / "grid.ghd"
        code = main(
            [
                "--instance", "grid2d_4", "--measure", "ghw",
                "--algorithm", algorithm, "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = self._printed_bound(capsys.readouterr().out)
        assert read_ghd(out).width() <= printed

    def test_node_counter_unchanged_by_output(self, capsys, tmp_path):
        import json

        def nodes(*extra):
            path = tmp_path / f"run{len(extra)}.jsonl"
            code = main(
                [
                    "--instance", "grid2d_5", "--measure", "ghw",
                    "--algorithm", "bb", "--telemetry-out", str(path),
                    *extra,
                ]
            )
            assert code == 0
            report = json.loads(path.read_text().splitlines()[-1])
            return report["counters"]['nodes{solver="bb-ghw"}']

        plain = nodes()
        assert plain == nodes("--output", str(tmp_path / "grid.ghd"))
        assert plain == 155
