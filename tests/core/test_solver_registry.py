"""The solver table: every ``(kind, measure)`` row runs through each entry
point that takes solver names — ``run_strategy``, ``run_experiment`` and
the CLI — and its claim certifies; unknown names keep their messages."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.api import generalized_hypertree_width, treewidth
from repro.core.solvers import SOLVERS, kinds, lookup
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.genetic.engine import GAParameters
from repro.instances.registry import instance
from repro.portfolio.strategies import StrategySpec
from repro.portfolio.workers import run_strategy
from repro.verify.certify import certify_ghw_witness, certify_tw_witness
from repro.verify.conformance import CELL_OPTIONS

INSTANCE = "adder_3"
OPTIMUM = {"tw": 3, "ghw": 2}
ROWS = list(SOLVERS)
IDS = [f"{kind}-{measure}" for kind, measure in ROWS]


def _strict(kind: str, measure: str) -> bool:
    # tw widths are exact for their ordering; greedy-cover ghw claims
    # may exceed the exact-cover width of their own witness
    return SOLVERS[(kind, measure)].exact or measure == "tw"


@pytest.mark.parametrize("kind,measure", ROWS, ids=IDS)
def test_run_strategy_claim_certifies(kind, measure):
    hypergraph = instance(INSTANCE)
    spec = StrategySpec(
        name=kind, kind=kind, seed=1, options=dict(CELL_OPTIONS.get(kind, {}))
    )
    result = run_strategy(spec, hypergraph, measure, time_limit=10.0)
    exact = SOLVERS[(kind, measure)].exact
    assert result.status == ("optimal" if exact else "heuristic")
    if measure == "tw":
        certification = certify_tw_witness(
            hypergraph.primal_graph(),
            result.ordering,
            result.upper_bound,
            strict=_strict(kind, measure),
        )
    else:
        certification = certify_ghw_witness(
            hypergraph,
            result.ordering,
            result.upper_bound,
            strict=_strict(kind, measure),
        )
    assert certification.ok, certification.reason
    assert certification.witness_width >= OPTIMUM[measure]


@pytest.mark.parametrize("kind,measure", ROWS, ids=IDS)
def test_run_experiment_runs_every_row(kind, measure):
    table = run_experiment(
        ExperimentSpec(
            instances=[INSTANCE],
            measure=measure,
            algorithms=[kind],
            time_limit=0.3,
            seed=1,
            ga_parameters=GAParameters(population_size=6, max_iterations=3),
        ),
        collect_reports=True,
    )
    report = table.reports[0]
    assert table.rows[0][kind] == report.upper_bound
    if SOLVERS[(kind, measure)].exact:
        assert report.status == "optimal"
        assert report.upper_bound == OPTIMUM[measure]
    else:
        assert report.status == "heuristic"
        assert report.upper_bound >= OPTIMUM[measure]


@pytest.mark.parametrize("kind,measure", ROWS, ids=IDS)
def test_cli_certifies_every_algorithm(kind, measure, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    code = main(
        [
            "--instance", INSTANCE, "--measure", measure,
            "--algorithm", kind, "--seed", "1", "--time-limit", "0.3",
            "--telemetry-out", str(path),
        ]
    )
    assert code == 0
    report = json.loads(path.read_text().splitlines()[-1])
    assert report["solver"] == kind
    assert report["certified"] is True
    assert report["upper_bound"] >= OPTIMUM[measure]


class TestUnknownNames:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            lookup("quantum", "tw")
        with pytest.raises(ValueError, match="unknown strategy kind"):
            run_strategy(
                StrategySpec(name="q", kind="quantum"), instance(INSTANCE), "tw"
            )

    def test_kind_of_another_measure(self):
        assert "saiga" in kinds("ghw") and "saiga" not in kinds("tw")
        with pytest.raises(ValueError, match="only applies to ghw"):
            lookup("saiga", "tw")

    def test_api_names_its_measure(self):
        with pytest.raises(ValueError, match="unknown ghw algorithm"):
            generalized_hypertree_width(instance(INSTANCE), algorithm="ga")
        with pytest.raises(ValueError, match="unknown treewidth algorithm"):
            treewidth(instance(INSTANCE), algorithm="dfs")

    def test_runner_and_cli_reject_unknown_names(self, capsys):
        with pytest.raises(ValueError, match="unknown algorithms"):
            ExperimentSpec(instances=[INSTANCE], algorithms=["dfs"]).validated()
        assert main(["--instance", INSTANCE, "--algorithm", "dfs"]) == 2
        assert "unknown strategy kind" in capsys.readouterr().err
