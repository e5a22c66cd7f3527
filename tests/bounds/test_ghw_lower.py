"""Tests for the tw-ksc-width ghw lower bound (Figure 8.1)."""

import random
from itertools import permutations

import pytest

from repro.bounds.ghw_lower import tw_ksc_width, tw_ksc_width_remaining
from repro.decompositions.elimination import ordering_ghw
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.hypergraphs import (
    adder,
    clique_hypergraph,
    grid2d,
    random_csp_hypergraph,
)


def brute_force_ghw(hypergraph) -> int:
    vertices = sorted(hypergraph.vertices())
    return min(
        ordering_ghw(hypergraph, list(perm), cover="exact")
        for perm in permutations(vertices)
    )


class TestSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_true_ghw(self, seed):
        hypergraph = random_csp_hypergraph(6, 5, arity=3, seed=seed)
        truth = brute_force_ghw(hypergraph)
        assert tw_ksc_width(hypergraph) <= truth

    def test_clique_bound_is_tight(self):
        """clique_n: tw lb = n-1, pair edges -> bound = ceil(n/2) = ghw."""
        hypergraph = clique_hypergraph(8)
        assert tw_ksc_width(hypergraph) == 4

    def test_adder_bound(self):
        hypergraph = adder(4)
        bound = tw_ksc_width(hypergraph)
        assert 1 <= bound <= 2

    def test_grid_bound(self):
        hypergraph = grid2d(3)
        bound = tw_ksc_width(hypergraph)
        assert 1 <= bound <= 2  # ghw(grid2d_3) = 2

    def test_edgeless(self):
        assert tw_ksc_width(Hypergraph(vertices=[1, 2])) == 0

    def test_single_edge(self):
        assert tw_ksc_width(Hypergraph({"e": {1, 2, 3}})) == 1


class TestRemaining:
    def test_full_remainder_matches_plain_bound(self):
        hypergraph = clique_hypergraph(6)
        primal = hypergraph.primal_graph()
        assert tw_ksc_width_remaining(hypergraph, primal) == tw_ksc_width(
            hypergraph, primal=primal
        )

    def test_empty_remainder_is_zero(self):
        hypergraph = clique_hypergraph(4)
        working = EliminationGraph(hypergraph.primal_graph())
        for vertex in sorted(hypergraph.vertices()):
            working.eliminate(vertex)
        assert (
            tw_ksc_width_remaining(hypergraph, working.graph()) == 0
        )

    def test_remaining_bound_sound_for_completions(self):
        """After eliminating a prefix, the bound must not exceed the best
        completion's cover width."""
        rng = random.Random(5)
        for seed in range(6):
            hypergraph = random_csp_hypergraph(6, 5, arity=3, seed=seed)
            vertices = sorted(hypergraph.vertices())
            rng.shuffle(vertices)
            prefix, rest = vertices[:2], vertices[2:]
            working = EliminationGraph(hypergraph.primal_graph())
            for vertex in prefix:
                working.eliminate(vertex)
            bound = tw_ksc_width_remaining(hypergraph, working.graph())
            # best completion: min over permutations of the rest of the
            # max exact cover over the *remaining* bags only
            from repro.decompositions.elimination import elimination_bags
            from repro.setcover.exact import ExactSetCoverSolver

            solver = ExactSetCoverSolver(hypergraph.edges())
            best = None
            for perm in permutations(rest):
                bags = elimination_bags(
                    working.snapshot(), list(perm)
                )
                width = max(
                    len(solver.cover(bag)) for bag in bags.values()
                )
                if best is None or width < best:
                    best = width
            assert bound <= best


class TestMonotonicity:
    def test_bound_at_least_one_with_edges(self):
        hypergraph = Hypergraph({"e1": {1, 2}, "e2": {2, 3}})
        assert tw_ksc_width(hypergraph) >= 1
