"""Table 5.2 — A*-tw on grid graphs.

Thesis: grid2..grid6 certified with treewidth n; grid7/grid8 interrupted
with lower bound 5*. Reproduced with grid2..grid6 certified and grid7
interrupted at the search budget (the thesis needed 150 s in C++ for
grid6). BB-tw runs alongside with the Table 5.1 budget.
"""

from __future__ import annotations

from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.instances.dimacs_like import grid_graph
from repro.search.astar_tw import astar_treewidth
from repro.search.bb_tw import branch_and_bound_treewidth

from workloads import (
    SEARCH_NODE_LIMIT,
    SEARCH_TIME_LIMIT,
    Row,
    fmt_result,
    print_table,
)

#: n -> the thesis's A*-tw entry for grid n ("5*": interrupted at lb 5)
THESIS_VALUES = {2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: "5*"}

CERTIFY = [2, 3, 4, 5, 6]
BUDGETED = [7]


def run_table() -> list[Row]:
    rows = []
    for n in CERTIFY + BUDGETED:
        graph = grid_graph(n)
        lb = treewidth_lower_bound(graph)
        ub, _ = upper_bound_ordering(graph, "min-fill")
        result = astar_treewidth(
            graph, time_limit=SEARCH_TIME_LIMIT, node_limit=30_000
        )
        bb = branch_and_bound_treewidth(
            graph, time_limit=SEARCH_TIME_LIMIT, node_limit=SEARCH_NODE_LIMIT
        )
        rows.append(
            Row(
                f"grid{n}",
                {
                    "V": graph.num_vertices(),
                    "E": graph.num_edges(),
                    "lb": lb,
                    "ub": ub,
                    "astar_tw": fmt_result(result),
                    "time_s": f"{result.elapsed:.2f}",
                    "bb_tw": fmt_result(bb),
                    "bb_time_s": f"{bb.elapsed:.2f}",
                    "thesis_tw": THESIS_VALUES[n],
                },
            )
        )
    return rows


def test_table_5_2(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 5.2 — A*-tw on grid graphs",
            rows,
            note="the n x n grid has treewidth n",
        )
    for row, n in zip(rows, CERTIFY):
        assert row.columns["astar_tw"] == str(n)
    # every other entry must still bracket the truth
    for row, n in zip(rows, CERTIFY + BUDGETED):
        for column in ("astar_tw", "bb_tw"):
            value = row.columns[column]
            if "*" in value:
                lower, upper = value.replace("]", "").split("*[")
                assert int(lower) <= n <= int(upper)
            else:
                assert int(value) == n


def test_benchmark_astar_tw_grid4(benchmark):
    graph = grid_graph(4)
    result = benchmark.pedantic(
        lambda: astar_treewidth(graph), iterations=1, rounds=1
    )
    assert result.value == 4
