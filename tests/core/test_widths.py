"""The width table: one row per measure, read by every caller."""

import json

import pytest

from repro.core.solvers import SOLVERS
from repro.core.widths import WIDTHS, lookup_width
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.hypergraphs.graph import Graph, path_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.report import read_jsonl, validate_report

TRIANGLE = Hypergraph({"ab": {"a", "b"}, "bc": {"b", "c"}, "ca": {"c", "a"}})


def test_every_solver_measure_has_a_row():
    assert {measure for _kind, measure in SOLVERS} == set(WIDTHS)
    assert all(name == row.name for name, row in WIDTHS.items())


def test_unknown_measure_names_the_rows():
    with pytest.raises(ValueError, match="measure must be 'tw' or 'ghw'"):
        lookup_width("hw")


def test_prepare():
    assert WIDTHS["tw"].prepare(TRIANGLE).num_edges() == 3
    assert isinstance(WIDTHS["tw"].prepare(TRIANGLE), Graph)
    assert WIDTHS["ghw"].prepare(TRIANGLE) is TRIANGLE
    with pytest.raises(ValueError, match="ghw needs a hypergraph instance"):
        WIDTHS["ghw"].prepare(path_graph(3))


def test_check_rejects_only_undefined_ghw():
    lonely = Hypergraph(vertices=[9])
    lonely.add_edge("e", {1, 2})
    WIDTHS["tw"].check(WIDTHS["tw"].prepare(lonely))
    with pytest.raises(ValueError, match="ghw is undefined"):
        WIDTHS["ghw"].check(lonely)


def test_strictness_rule():
    # A claim is strict iff its solver is exact or the measure is
    # deterministic.
    assert WIDTHS["tw"].strict(exact=False) and WIDTHS["tw"].strict(exact=True)
    assert WIDTHS["ghw"].strict(exact=True)
    assert not WIDTHS["ghw"].strict(exact=False)


def test_pieces_are_the_components():
    graph = path_graph(3)
    graph.add_edge("x", "y")
    assert sorted(p.num_vertices() for p in WIDTHS["tw"].pieces(graph)) == [2, 3]
    split = TRIANGLE.copy()
    split.add_edge("de", {"d", "e"})
    pieces = WIDTHS["ghw"].pieces(split)
    assert sorted(sorted(p.edges()) for p in pieces) == [["ab", "bc", "ca"], ["de"]]


@pytest.mark.parametrize("measure", sorted(WIDTHS))
def test_decompose_and_certify(measure, tmp_path):
    row = WIDTHS[measure]
    instance = row.prepare(TRIANGLE)
    ordering = ["a", "b", "c"]
    decomposition = row.decompose(instance, ordering)
    assert decomposition.width() == 2
    row.write(decomposition, str(tmp_path / "witness"))
    assert (tmp_path / "witness").read_text()
    assert row.certified(instance, ordering, 2, strict=True) is True
    assert row.certified(instance, ordering, 1, strict=False) is False
    assert row.certified(instance, [], 2, strict=True) is None
    assert row.certified(instance, ordering, None, strict=True) is None


def test_fitness_agrees_with_the_witness():
    import random

    for measure, row in WIDTHS.items():
        instance = row.prepare(TRIANGLE)
        serial = row.fitness(instance, random.Random(0))
        pooled = row.pool_fitness(instance)
        assert serial(["a", "b", "c"]) == pooled(["a", "b", "c"]) == 2, measure


@pytest.mark.parametrize(
    "measure,instances,algorithms",
    [
        ("tw", ["myciel3", "queen4_4"], ["astar", "ga", "min-fill", "portfolio"]),
        ("ghw", ["adder_3"], ["bb", "ga", "portfolio"]),
    ],
)
def test_runner_reports_are_certified(measure, instances, algorithms, tmp_path):
    path = tmp_path / "runs.jsonl"
    spec = ExperimentSpec(
        instances=instances,
        measure=measure,
        algorithms=algorithms,
        time_limit=2.0,
    )
    table = run_experiment(spec, telemetry_out=str(path))
    assert len(table.reports) == len(instances) * len(algorithms)
    for line in path.read_text().splitlines():
        validate_report(json.loads(line))
    assert all(report.certified is True for report in read_jsonl(str(path)))


def test_runner_rejects_a_graph_for_ghw():
    with pytest.raises(ValueError, match="ghw needs a hypergraph instance"):
        run_experiment(ExperimentSpec(instances=["queen4_4"], measure="ghw"))
