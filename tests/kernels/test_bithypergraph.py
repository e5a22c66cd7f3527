"""Unit tests for the bitset graph/hypergraph representations."""

from __future__ import annotations

import pytest

from repro.decompositions.elimination import ordering_ghw
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph, bits_of
from repro.kernels.elimination import (
    bit_elimination_bags,
    bit_ordering_ghw,
    bit_ordering_width,
)


def triangle_plus_tail():
    return Graph(vertices=range(4), edges=[(0, 1), (1, 2), (0, 2), (2, 3)])


def small_hypergraph():
    return Hypergraph({"a": {0, 1}, "b": {1, 2}, "c": {2, 3}, "d": {0, 3}})


def test_bits_of():
    assert bits_of(0) == []
    assert bits_of(0b1011) == [0, 1, 3]


def test_bitgraph_interning_is_sorted_and_total():
    bg = BitGraph.from_graph(triangle_plus_tail())
    assert bg.vertices == [0, 1, 2, 3]
    assert bg.full_mask == 0b1111
    assert bg.vertices_of(bg.nbr_masks[2]) == {0, 1, 3}
    assert bg.mask_of([0, 3]) == 0b1001


def test_order_of_rejects_unknown_vertex():
    bg = BitGraph.from_graph(triangle_plus_tail())
    with pytest.raises(ValueError, match="not a permutation"):
        bg.order_of([0, 1, 2, 99])


def test_bit_elimination_matches_known_widths():
    bg = BitGraph.from_graph(triangle_plus_tail())
    order = bg.order_of([3, 0, 1, 2])
    bags = bit_elimination_bags(bg, order)
    assert len(bags) == 4
    assert bit_ordering_width(bg, order) == 2  # the triangle forces 2


def test_bithypergraph_incidence_and_tie_rank():
    bh = BitHypergraph.from_hypergraph(small_hypergraph())
    # vertex 1 appears in edges "a" and "b" only
    i_a = bh.edge_names.index("a")
    i_b = bh.edge_names.index("b")
    assert bits_of(bh.incidence_masks[bh.index[1]]) == sorted([i_a, i_b])
    # tie_rank is rank in repr-sorted name order
    by_rank = sorted(range(len(bh.edge_names)), key=bh.tie_rank.__getitem__)
    assert [bh.edge_names[i] for i in by_rank] == ["a", "b", "c", "d"]


def test_bit_ordering_ghw_small_cycle():
    bh = BitHypergraph.from_hypergraph(small_hypergraph())
    order = bh.order_of([0, 1, 2, 3])
    assert ordering_ghw(small_hypergraph(), [0, 1, 2, 3], cover="exact") == 2
    assert bit_ordering_ghw(bh, order) >= 2
