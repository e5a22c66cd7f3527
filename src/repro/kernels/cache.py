"""The bounded bag -> cover memo each cover owner keeps for itself.

A :class:`CoverCache` is an LRU from a bag bitmask to a cover (a tuple
of edge indices), with hit/miss/eviction counters. It has no family or
mode in its key, because every instance belongs to one owner that
fixes both: :attr:`BitHypergraph.covers
<repro.kernels.bithypergraph.BitHypergraph.covers>` holds the
deterministic greedy covers of that one edge family
(:func:`~repro.kernels.cover.cover_mask`), and the pool evaluator
publishes its deltas. Exact covers stay in the memo of their
:class:`~repro.setcover.exact.ExactSetCoverSolver`. No memo outlives
its owner, so what one run counts does not depend on what ran before
it in the same process. Randomised greedy covers (``rng`` tie-breaking)
are never memoised: re-randomisation is part of their semantics.
"""

from __future__ import annotations

from collections import OrderedDict

#: Entries a memo keeps before it evicts its least recently used one.
#: A cover is a small tuple; 2^18 of them hold every distinct bag of a
#: benchmark-scale run.
MAXSIZE = 262_144


class CoverCache:
    """A bounded LRU mapping ``bag mask -> cover tuple``."""

    def __init__(self) -> None:
        self._entries: OrderedDict[int, tuple[int, ...]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, bag: int) -> tuple[int, ...] | None:
        """The memoised cover of ``bag``, or ``None``; refreshes recency."""
        cover = self._entries.get(bag)
        if cover is None:
            self.misses += 1
            return None
        self._entries.move_to_end(bag)
        self.hits += 1
        return cover

    def put(self, bag: int, cover: tuple[int, ...]) -> None:
        """Insert a cover, evicting the least recently used entry if full."""
        entries = self._entries
        entries[bag] = cover
        if len(entries) > MAXSIZE:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """Cumulative counters plus current occupancy."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": MAXSIZE,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


_NEVER_WRITTEN = CoverCache()


def cover_cache() -> CoverCache:
    """An empty memo that nothing in the library writes.

    ``perfbench/worker.py`` clears it and reads its ``hits``/``misses``
    on every benchmark cell; that reader is its only reason to exist,
    and once the benchmark stops reading it this function goes too. It
    always reports zero lookups.
    """
    return _NEVER_WRITTEN
