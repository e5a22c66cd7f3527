"""CoverCache counters, and the evaluator deltas published from them."""

from repro import obs
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels import cache
from repro.kernels.cache import CoverCache
from repro.kernels.evaluators import make_bit_ghw_evaluator


def _counts(memo: CoverCache) -> tuple[int, int, int]:
    stats = memo.stats()
    return stats["hits"], stats["misses"], stats["evictions"]


class TestCounts:
    def test_tracks_hits_misses_evictions(self, monkeypatch):
        monkeypatch.setattr(cache, "MAXSIZE", 2)
        memo = CoverCache()
        assert _counts(memo) == (0, 0, 0)
        memo.get(1)  # miss
        memo.put(1, (0,))
        memo.get(1)  # hit
        memo.put(2, (1,))
        memo.put(3, (2,))  # evicts bag 1
        assert _counts(memo) == (1, 1, 1)

    def test_counts_matches_stats(self):
        """The counters the evaluator reads are the ones stats() reports."""
        memo = CoverCache()
        memo.get(1)
        memo.put(1, (0,))
        memo.get(1)
        assert (memo.hits, memo.misses, memo.evictions) == _counts(memo)

    def test_clear_resets(self):
        memo = CoverCache()
        memo.get(1)
        memo.put(1, (0,))
        memo.clear()
        assert _counts(memo) == (0, 0, 0) and len(memo) == 0


class TestEvaluatorDeltas:
    def test_evaluator_publishes_cache_events(self, monkeypatch):
        """Hit/miss/eviction deltas of the evaluator's own memo land on
        the ambient metrics."""
        monkeypatch.setattr(cache, "MAXSIZE", 4)
        hypergraph = Hypergraph(
            {
                "e1": {"a", "b"},
                "e2": {"b", "c"},
                "e3": {"c", "d"},
                "e4": {"d", "a"},
            }
        )
        with obs.instrument() as ins:
            evaluate = make_bit_ghw_evaluator(hypergraph)
            evaluate(["a", "b", "c", "d"])  # cold: four bags miss
            evaluate(["a", "b", "c", "d"])  # warm: four hits
            evaluate(["d", "c", "b", "a"])  # new bags evict old ones
            counters = ins.metrics.snapshot_by_kind()["counters"]
        hits, misses, evictions = _counts(evaluate.covers)
        assert counters.get('cover_cache{event="miss"}', 0) == misses
        assert counters.get('cover_cache{event="hit"}', 0) == hits
        assert counters.get('cover_cache{event="eviction"}', 0) == evictions
        assert misses > 0 and hits > 0 and evictions > 0
