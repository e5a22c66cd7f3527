"""Ablation — what PR2 and the simplicial reductions buy.

DESIGN.md calls the pruning machinery out as a design choice; this bench
measures its effect: node counts of A*-tw and BB-ghw with each feature
toggled, at identical certified answers. The thesis's motivation for the
rules (Sections 4.4.3-4.4.5) is exactly this node-count reduction.

A*-tw always runs with duplicate detection on the eliminated set, so its
rows show what PR2 and the reductions buy on top of it. myciel4 and
grid5 are the graphs where that shows; a configuration that does not
certify within ``SEARCH_NODE_LIMIT`` nodes is printed as ``nodes*``.
"""

from __future__ import annotations

from repro.instances.registry import graph_instance, hypergraph_instance
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_ghw import branch_and_bound_ghw

from workloads import SEARCH_NODE_LIMIT, Row, print_table

GRAPHS = ["queen4_4", "myciel3", "grid4", "myciel4", "grid5"]
HYPERGRAPHS = ["adder_4", "clique_6", "grid2d_3"]

CONFIGS = [
    ("full", dict(use_pr2=True, use_reductions=True)),
    ("no-pr2", dict(use_pr2=False, use_reductions=True)),
    ("no-reductions", dict(use_pr2=True, use_reductions=False)),
    ("bare", dict(use_pr2=False, use_reductions=False)),
]


def run_tables() -> tuple[list[Row], list[Row]]:
    tw_rows = []
    for name in GRAPHS:
        graph = graph_instance(name)
        columns = {}
        value = None
        for label, flags in CONFIGS:
            result = astar_treewidth(
                graph, node_limit=SEARCH_NODE_LIMIT, **flags
            )
            if result.optimal:
                if value is None:
                    value = result.value
                assert result.value == value
                columns[f"nodes[{label}]"] = result.nodes_expanded
            else:
                assert label != "full", f"full pruning did not certify {name}"
                assert result.lower_bound <= value <= result.upper_bound
                columns[f"nodes[{label}]"] = f"{result.nodes_expanded}*"
        columns["tw"] = value
        tw_rows.append(Row(name, columns))

    ghw_rows = []
    for name in HYPERGRAPHS:
        hypergraph = hypergraph_instance(name)
        columns = {}
        value = None
        for label, flags in CONFIGS:
            result = branch_and_bound_ghw(hypergraph, **flags)
            assert result.optimal
            if value is None:
                value = result.value
            assert result.value == value
            columns[f"nodes[{label}]"] = result.nodes_expanded
        columns["ghw"] = value
        ghw_rows.append(Row(name, columns))
    return tw_rows, ghw_rows


def test_ablation_pruning(capsys):
    tw_rows, ghw_rows = run_tables()
    with capsys.disabled():
        print_table(
            "Ablation — A*-tw node counts by pruning configuration",
            tw_rows,
            note=(
                "duplicate detection always on; "
                f"n* = uncertified at {SEARCH_NODE_LIMIT} nodes"
            ),
        )
        print_table(
            "Ablation — BB-ghw node counts by pruning configuration",
            ghw_rows,
        )
    for row in tw_rows + ghw_rows:
        # full pruning must never expand more nodes than bare search
        bare = row.columns["nodes[bare]"]
        if isinstance(bare, int):
            assert row.columns["nodes[full]"] <= bare


def test_benchmark_astar_full_vs_bare(benchmark):
    graph = graph_instance("queen4_4")
    benchmark.pedantic(
        lambda: astar_treewidth(graph, use_pr2=True, use_reductions=True),
        iterations=1,
        rounds=1,
    )
