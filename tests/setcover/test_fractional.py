"""Tests for fractional covers and fractional width (LP extension)."""

import pytest

pytest.importorskip("scipy")

from repro.instances.hypergraphs import (
    adder,
    clique_hypergraph,
    random_csp_hypergraph,
)
from repro.decompositions.elimination import ordering_ghw
from repro.setcover.fractional import (
    fractional_cover_value,
    ordering_fractional_width,
)
from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import UncoverableError


def edges(**named):
    return {name: frozenset(edge) for name, edge in named.items()}


class TestFractionalCover:
    def test_empty_target(self):
        assert fractional_cover_value(set(), edges(a={1})) == 0.0

    def test_single_edge(self):
        assert fractional_cover_value({1, 2}, edges(a={1, 2})) == pytest.approx(1.0)

    def test_disjoint_edges(self):
        value = fractional_cover_value(
            {1, 2, 3, 4}, edges(a={1, 2}, b={3, 4})
        )
        assert value == pytest.approx(2.0)

    def test_fractional_beats_integral_on_triangle(self):
        """The classic gap instance: covering a triangle's vertices with
        its edges costs 2 integrally but only 1.5 fractionally."""
        instance = edges(ab={1, 2}, bc={2, 3}, ca={3, 1})
        assert len(exact_set_cover({1, 2, 3}, instance)) == 2
        assert fractional_cover_value({1, 2, 3}, instance) == pytest.approx(1.5)

    def test_never_exceeds_integral(self):
        for seed in range(10):
            hypergraph = random_csp_hypergraph(8, 6, arity=3, seed=seed)
            target = hypergraph.vertices()
            integral = len(exact_set_cover(target, hypergraph.edges()))
            fractional = fractional_cover_value(target, hypergraph.edges())
            assert fractional <= integral + 1e-9

    def test_uncoverable(self):
        with pytest.raises(UncoverableError):
            fractional_cover_value({1, 99}, edges(a={1}))


class TestFractionalWidth:
    def test_clique_gap(self):
        """fhw(K_n as pair edges) = n/2 exactly (not ceil(n/2))."""
        hypergraph = clique_hypergraph(5)
        ordering = sorted(hypergraph.vertices())
        assert ordering_fractional_width(hypergraph, ordering) == pytest.approx(2.5)
        assert ordering_ghw(hypergraph, ordering, cover="exact") == 3

    def test_adder(self):
        hypergraph = adder(3)
        ordering = sorted(hypergraph.vertices())
        fractional = ordering_fractional_width(hypergraph, ordering)
        integral = ordering_ghw(hypergraph, ordering, cover="exact")
        assert fractional <= integral + 1e-9
        assert fractional >= 1.0

    def test_fractional_at_most_integral_everywhere(self):
        import random

        rng = random.Random(0)
        for seed in range(6):
            hypergraph = random_csp_hypergraph(7, 5, arity=3, seed=seed)
            ordering = sorted(hypergraph.vertices())
            rng.shuffle(ordering)
            fractional = ordering_fractional_width(hypergraph, ordering)
            integral = ordering_ghw(hypergraph, ordering, cover="exact")
            assert fractional <= integral + 1e-9
