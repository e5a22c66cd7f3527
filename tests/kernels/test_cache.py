"""Unit tests for the per-owner cover memos and their integration points."""

from __future__ import annotations

import ast
import random
from pathlib import Path

from repro.decompositions.elimination import ordering_ghw
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels import cache
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.cache import CoverCache, cover_cache
from repro.kernels.cover import cover_mask
from repro.kernels.elimination import bit_ordering_ghw
from repro.setcover.exact import ExactSetCoverSolver


def _square() -> Hypergraph:
    return Hypergraph({"a": {0, 1}, "b": {1, 2}, "c": {2, 3}, "d": {0, 3}})


def test_lru_eviction_order(monkeypatch):
    monkeypatch.setattr(cache, "MAXSIZE", 2)
    memo = CoverCache()
    memo.put(0b01, (1,))
    memo.put(0b10, (2,))
    assert memo.get(0b01) == (1,)  # refreshes 0b01
    memo.put(0b11, (3,))  # evicts the least recently used, 0b10
    assert memo.get(0b10) is None
    assert memo.get(0b01) == (1,)
    assert len(memo) == 2 and memo.evictions == 1


def test_bithypergraph_memo_evicts_at_the_bound(monkeypatch):
    monkeypatch.setattr(cache, "MAXSIZE", 2)
    bh = BitHypergraph.from_hypergraph(_square())
    for bag in (0b0011, 0b0110, 0b1100):
        cover_mask(bh, bag)
    assert len(bh.covers) == 2 and bh.covers.evictions == 1


def test_modes_and_tokens_do_not_mix():
    """Greedy covers live on the BitHypergraph, exact ones in their
    solver, and two BitHypergraphs never share a memo, not even over
    identical edges."""
    # Greedy takes a (4 vertices) and then two more edges; b and c
    # cover the bag with two.
    edges = {"a": {1, 2, 3, 4}, "b": {1, 2, 5}, "c": {3, 4, 6}}
    bh = BitHypergraph.from_edges(edges)
    bag = bh.bag_mask({1, 2, 3, 4, 5, 6})
    solver = ExactSetCoverSolver(bh)
    assert len(solver.cover(bag)) == 2
    assert len(cover_mask(bh, bag)) == 3
    assert len(solver.cover(bag)) == 2
    assert bh.covers.stats()["size"] == 1
    twin = BitHypergraph.from_edges(edges)
    assert twin.covers is not bh.covers and len(twin.covers) == 0


def test_stats_shape():
    memo = CoverCache()
    memo.put(0b1, (0,))
    memo.get(0b1)
    memo.get(0b10)
    stats = memo.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["size"] == 1 and 0 < stats["hit_rate"] < 1
    assert stats["maxsize"] == cache.MAXSIZE == 262_144


def test_second_bit_ordering_ghw_hits_the_memo():
    bh = BitHypergraph.from_hypergraph(_square())
    order = bh.order_of([0, 1, 2, 3])
    width = bit_ordering_ghw(bh, order)
    misses, size = bh.covers.misses, len(bh.covers)
    assert bh.covers.hits == 0 and misses == size > 0
    assert bit_ordering_ghw(bh, order) == width
    assert bh.covers.misses == misses and bh.covers.hits == misses


def _record_interning(monkeypatch) -> list[BitHypergraph]:
    """Every BitHypergraph interned from now on, in order."""
    built: list[BitHypergraph] = []
    for name in ("from_hypergraph", "from_edges"):
        original = getattr(BitHypergraph, name).__func__

        def recording(cls, *args, _original=original, **kwargs):
            bh = _original(cls, *args, **kwargs)
            if not built or built[-1] is not bh:
                built.append(bh)
            return bh

        monkeypatch.setattr(BitHypergraph, name, classmethod(recording))
    return built


def test_randomised_greedy_is_never_cached(monkeypatch):
    built = _record_interning(monkeypatch)
    ordering_ghw(_square(), [0, 1, 2, 3], cover="greedy", rng=random.Random(0))
    ordering_ghw(_square(), [0, 1, 2, 3], cover="greedy")
    seeded, deterministic = built
    assert "covers" not in vars(seeded)
    assert len(deterministic.covers) == 4


def test_token_is_interned_only_when_the_cache_is_read(monkeypatch):
    """A family keeps no memo until a deterministic greedy cover reads
    it: GA-ghw at ``jobs=1`` and ``greedy_set_cover`` never make one."""
    from repro.genetic.engine import GAParameters
    from repro.genetic.ga_ghw import ga_ghw
    from repro.setcover.greedy import greedy_set_cover

    h = Hypergraph({f"lazy{i}": {i, (i + 1) % 5} for i in range(5)})
    built = _record_interning(monkeypatch)
    ga_ghw(h, GAParameters(population_size=6, max_iterations=3), seed=0)
    greedy_set_cover({0, 1, 2}, h.edges())
    assert built and not any("covers" in vars(bh) for bh in built)
    ordering_ghw(h, list(range(5)), cover="greedy")  # reads the memo
    assert "covers" in vars(built[-1])


def test_only_the_shim_names_cover_cache():
    """``cover_cache()`` is a never-written instance kept for the
    benchmark's reader: no library module names it, not even to import
    it, outside ``kernels/cache.py``."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative == "kernels/cache.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                continue
            if "cover_cache" in names:
                offenders.append(f"{relative}:{node.lineno}")
    assert not offenders, offenders
    assert cover_cache().stats()["hits"] == cover_cache().stats()["misses"] == 0
