"""Unit tests for the shared cover cache and its integration points."""

from __future__ import annotations

import pytest

from repro.decompositions.elimination import ordering_ghw, ordering_to_ghd
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.cache import (
    CoverCache,
    configure_cover_cache,
    cover_cache,
    family_token,
)
from repro.setcover.exact import ExactSetCoverSolver


@pytest.fixture(autouse=True)
def clean_cache():
    cover_cache().clear()
    yield
    cover_cache().clear()


def test_lru_eviction_order():
    cache = CoverCache(maxsize=2)
    cache.put(0, "greedy", "a", ("e1",))
    cache.put(0, "greedy", "b", ("e2",))
    assert cache.get(0, "greedy", "a") == ("e1",)  # refreshes "a"
    cache.put(0, "greedy", "c", ("e3",))  # evicts LRU "b"
    assert cache.get(0, "greedy", "b") is None
    assert cache.get(0, "greedy", "a") == ("e1",)
    assert cache.evictions == 1


def test_modes_and_tokens_do_not_mix():
    cache = CoverCache()
    cache.put(0, "greedy", "bag", ("g",))
    cache.put(0, "exact", "bag", ("x",))
    cache.put(1, "greedy", "bag", ("other",))
    assert cache.get(0, "greedy", "bag") == ("g",)
    assert cache.get(0, "exact", "bag") == ("x",)
    assert cache.get(1, "greedy", "bag") == ("other",)


def test_resize_shrinks_and_rejects_nonpositive():
    cache = CoverCache(maxsize=4)
    for i in range(4):
        cache.put(0, "greedy", i, (i,))
    cache.resize(2)
    assert len(cache) == 2
    with pytest.raises(ValueError):
        cache.resize(0)


def test_stats_shape():
    cache = CoverCache()
    cache.put(0, "greedy", "bag", ("e",))
    cache.get(0, "greedy", "bag")
    cache.get(0, "greedy", "missing")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["size"] == 1 and 0 < stats["hit_rate"] < 1


def test_configure_cover_cache_resizes_global():
    configure_cover_cache(77)
    assert cover_cache().maxsize == 77
    configure_cover_cache(262_144)


def test_family_token_interned_by_content():
    edges = {"a": frozenset({1, 2}), "b": frozenset({2, 3})}
    assert family_token(frozenset(edges.items())) == family_token(
        frozenset(dict(edges).items())
    )
    assert family_token("x") != family_token("y")


def test_exact_solver_shares_cache_across_instances():
    edges = {"a": {0, 1}, "b": {1, 2}, "c": {2, 3}}
    solver1 = ExactSetCoverSolver(edges)
    solver1.cover({0, 1, 2})
    misses_after_first = cover_cache().misses
    solver2 = ExactSetCoverSolver(edges)  # fresh solver, same family
    solver2.cover({0, 1, 2})
    assert cover_cache().misses == misses_after_first
    assert cover_cache().hits >= 1


def test_ordering_ghw_then_ghd_reuses_covers():
    h = Hypergraph({"a": {0, 1}, "b": {1, 2}, "c": {2, 3}, "d": {0, 3}})
    ordering = [0, 1, 2, 3]
    ordering_ghw(h, ordering, cover="greedy")
    misses = cover_cache().misses
    ghd = ordering_to_ghd(h, ordering, cover="greedy")
    # every bag the GHD needs was already covered by ordering_ghw
    assert cover_cache().misses == misses
    assert ghd.width() == ordering_ghw(h, ordering, cover="greedy")


def test_randomised_greedy_is_never_cached():
    import random

    h = Hypergraph({"a": {0, 1}, "b": {1, 2}, "c": {2, 3}, "d": {0, 3}})
    before = len(cover_cache())
    ordering_ghw(h, [0, 1, 2, 3], cover="greedy", rng=random.Random(0))
    assert len(cover_cache()) == before


def test_token_is_interned_only_when_the_cache_is_read():
    from repro.genetic.engine import GAParameters
    from repro.genetic.ga_ghw import ga_ghw
    from repro.kernels import cache
    from repro.setcover.greedy import greedy_set_cover

    # Edge names no other test uses: a token for them would be new.
    h = Hypergraph({f"lazy{i}": {i, (i + 1) % 5} for i in range(5)})
    before = len(cache._FAMILY_TOKENS)
    ga_ghw(h, GAParameters(population_size=6, max_iterations=3), seed=0)
    greedy_set_cover({0, 1, 2}, h.edges())
    assert len(cache._FAMILY_TOKENS) == before
    ordering_ghw(h, list(range(5)), cover="greedy")  # reads the cache
    assert len(cache._FAMILY_TOKENS) == before + 1
