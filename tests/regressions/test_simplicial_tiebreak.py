"""Regression: vertex tie-breaks must be canonical across code paths.

``find_simplicial`` used to break ties by ``repr``-sorting vertices, so
on integer-labelled graphs vertex 10 sorted before vertex 2 ("10" < "2"
lexicographically) while the bitset kernels interned vertices in a
different order — the python and bitset search paths could force
*different* reduction vertices on the same graph. Both now share
:func:`repro.hypergraphs.graph.vertex_sort_key` (numeric vertices in
numeric order, everything else by ``repr``).
"""

from repro.genetic.engine import GAParameters
from repro.genetic.ga_tw import ga_treewidth
from repro.hypergraphs.graph import Graph, vertex_sort_key
from repro.kernels.bithypergraph import BitGraph
from repro.reductions.simplicial import find_simplicial


def two_digit_path() -> Graph:
    # Both endpoints (2 and 10) are simplicial; repr order picks 10,
    # numeric order picks 2.
    graph = Graph(vertices=[2, 5, 10])
    graph.add_edge(2, 5)
    graph.add_edge(5, 10)
    return graph


class TestCanonicalVertexOrder:
    def test_numeric_vertices_sort_numerically(self):
        assert sorted([10, 2, 33, 5], key=vertex_sort_key) == [2, 5, 10, 33]

    def test_mixed_types_numerics_first(self):
        ordered = sorted([10, "a", 2, (1, 2)], key=vertex_sort_key)
        assert ordered[:2] == [2, 10]

    def test_find_simplicial_prefers_numeric_minimum(self):
        assert find_simplicial(two_digit_path()) == 2

    def test_bitset_interning_matches_reduction_order(self):
        graph = two_digit_path()
        assert BitGraph.from_graph(graph).vertices == sorted(
            graph.vertices(), key=vertex_sort_key
        )


class TestJobsParity:
    def test_ga_tw_serial_and_pooled_agree(self):
        # A graph whose integer labels straddle the 1-digit/2-digit
        # boundary: repr-order and numeric order genuinely differ. The
        # in-process evaluator and the pool workers intern it apart.
        graph = Graph(vertices=range(13))
        for offset in (1, 2, 9, 11):
            for u in range(13):
                if u + offset < 13:
                    graph.add_edge(u, u + offset)
        parameters = GAParameters(population_size=8, max_iterations=6)
        results = {
            jobs: ga_treewidth(graph, parameters=parameters, seed=11, jobs=jobs)
            for jobs in (1, 2)
        }
        assert results[1].best_fitness == results[2].best_fitness
        assert results[1].best_individual == results[2].best_individual
