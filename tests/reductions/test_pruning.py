"""Tests for pruning rules PR1 and PR2 (Sections 4.4.4-4.4.5)."""

import random
from itertools import permutations

import pytest

from repro.decompositions.elimination import ordering_ghw, ordering_width
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, cycle_graph, path_graph
from repro.instances.dimacs_like import random_gnp
from repro.instances.hypergraphs import random_csp_hypergraph
from repro.reductions.pruning import (
    pr1_ghw,
    pr1_treewidth,
    pr2_prune_children,
    swap_safe_ghw,
    swap_safe_treewidth,
)


class TestPR1:
    def test_treewidth_certificate(self):
        achievable, close = pr1_treewidth(g=3, remaining=4)
        assert achievable == 3
        assert close

    def test_treewidth_open(self):
        achievable, close = pr1_treewidth(g=2, remaining=6)
        assert achievable == 5
        assert not close

    def test_ghw_certificate(self):
        achievable, close = pr1_ghw(g=3, remainder_cover=2)
        assert achievable == 3
        assert close

    def test_ghw_open(self):
        achievable, close = pr1_ghw(g=1, remainder_cover=4)
        assert achievable == 4
        assert not close


class TestSwapSafety:
    def test_non_adjacent_always_safe(self):
        graph = path_graph(4)
        assert swap_safe_treewidth(graph, 0, 2)
        assert swap_safe_ghw(graph, 0, 2)

    def test_adjacent_unsafe_for_ghw(self):
        graph = path_graph(4)
        assert not swap_safe_ghw(graph, 0, 1)

    def test_adjacent_with_private_neighbours_safe_for_tw(self):
        # 0 - 1 - 2 - 3: the middle edge (1,2) has private neighbours
        # 0 (of 1) and 3 (of 2)
        graph = path_graph(4)
        assert swap_safe_treewidth(graph, 1, 2)

    def test_adjacent_without_private_neighbour_unsafe(self):
        # In a triangle, 0 and 1 share their only other neighbour 2.
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        assert not swap_safe_treewidth(graph, 0, 1)

    def test_swap_preserves_width_when_declared_safe(self):
        """Semantic check of the PR2 claim on random graphs."""
        rng = random.Random(0)
        for seed in range(20):
            graph = random_gnp(7, 0.5, seed=seed)
            vertices = sorted(graph.vertices())
            ordering = vertices[:]
            rng.shuffle(ordering)
            v, w = ordering[0], ordering[1]
            if swap_safe_treewidth(graph, v, w):
                swapped = [w, v] + ordering[2:]
                assert ordering_width(graph, ordering) == ordering_width(
                    graph, swapped
                )

    def test_swap_preserves_ghw_when_declared_safe(self):
        rng = random.Random(1)
        for seed in range(15):
            hypergraph = random_csp_hypergraph(7, 5, arity=3, seed=seed)
            primal = hypergraph.primal_graph()
            ordering = sorted(hypergraph.vertices())
            rng.shuffle(ordering)
            v, w = ordering[0], ordering[1]
            if swap_safe_ghw(primal, v, w):
                swapped = [w, v] + ordering[2:]
                assert ordering_ghw(
                    hypergraph, ordering, cover="exact"
                ) == ordering_ghw(hypergraph, swapped, cover="exact")


class TestPruneChildren:
    def test_keeps_unsafe_pairs(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        kept = pr2_prune_children(graph, 1, [0, 2])
        assert kept == [0, 2]  # both adjacent, no private neighbours

    def test_drops_canonically_smaller_safe_sibling(self):
        graph = path_graph(4)
        kept = pr2_prune_children(graph, 2, [0, 1, 3])
        # 0 is non-adjacent to 2 (safe) and canonically smaller: dropped.
        # 1 is adjacent to 2 but both have private neighbours (0 and 3),
        # so the pair is swap-safe too and 1 < 2: dropped as well.
        # 3 is adjacent to 2 with no private neighbour for 3: kept.
        assert kept == [3]

    def test_ghw_safety_keeps_adjacent_siblings(self):
        graph = path_graph(4)
        kept = pr2_prune_children(
            graph, 2, [0, 1, 3], swap_safe=swap_safe_ghw
        )
        # Under the ghw rule only non-adjacency is safe: 1 and 3 survive.
        assert kept == [1, 3]

    def test_judged_after_elimination_from_the_undo_record(self):
        working = EliminationGraph(path_graph(4))
        working.eliminate(2)
        assert pr2_prune_children(working, 2, [0, 1, 3]) == [3]
        assert working.alive == 0b1011  # nothing restored
        working.eliminate(0)
        with pytest.raises(ValueError):
            pr2_prune_children(working, 2, [1, 3])

    def test_keeps_canonically_larger(self):
        graph = path_graph(4)
        kept = pr2_prune_children(graph, 0, [2, 3])
        assert kept == [2, 3]

    def test_pruned_search_space_still_contains_optimum(self):
        """Exhaustively enumerate the PR2-pruned ordering tree and check
        it still reaches the optimal width."""
        for seed in range(8):
            graph = random_gnp(6, 0.5, seed=seed)
            vertices = sorted(graph.vertices())
            optimum = min(
                ordering_width(graph, list(perm))
                for perm in permutations(vertices)
            )

            best = [len(vertices)]

            def explore(working: Graph, prefix, g, children):
                if not children and working.num_vertices() == 0:
                    best[0] = min(best[0], g)
                    return
                for child in children:
                    degree = working.degree(child)
                    rest = [v for v in working.vertices() if v != child]
                    filtered = pr2_prune_children(working, child, rest)
                    after = working.copy()
                    after.eliminate(child)
                    explore(
                        after, prefix + [child], max(g, degree), filtered
                    )

            explore(graph.copy(), [], 0, vertices)
            assert best[0] == optimum
