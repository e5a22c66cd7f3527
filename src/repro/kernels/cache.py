"""The process-wide bag -> cover LRU cache shared by every cover call.

Every heuristic in the pipeline evaluates thousands of highly-similar
elimination orderings; the bags they produce overlap massively both
*within* one candidate ordering and *across* the whole population of a
GA/SAIGA/SA/tabu run. Before this module each :class:`ExactSetCoverSolver`
kept a private memo that died with the solver, and greedy covers were
never reused at all. The :class:`CoverCache` replaces both with one
process-wide LRU, so a bag solved once — exact or greedy — is free for
every later candidate of the run.

Keys are ``(family token, mode, bag)``:

* the **family token** is an interned small integer identifying the edge
  family (hyperedge name -> vertex-set mapping, or the bitset kernel's
  edge-mask tuple). Interning keys by content means two structurally
  identical hypergraphs share entries, while any difference in edges or
  names isolates them completely;
* the **mode** is ``"exact"`` or ``"greedy"`` — the two never mix because
  greedy covers may be suboptimal;
* the **bag** is an ``int`` bitmask over the family's interned vertices.

Values are tuples of edge indices; cover *size* is their
length. Randomised greedy covers (``rng`` tie-breaking) are deliberately
never cached — re-randomisation is part of their semantics.

The cache is instrumented: it keeps cumulative hit/miss/eviction counts
(:meth:`CoverCache.stats`), and callers on hot paths publish deltas to
``repro.obs`` once per evaluation rather than once per lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from threading import Lock

#: Default maximum number of cached covers. A cover entry is a small
#: tuple; 2^18 entries stay well under typical memory budgets while
#: comfortably holding every distinct bag of a benchmark-scale run.
DEFAULT_MAXSIZE = 262_144

CacheKey = tuple[int, str, Hashable]


class CoverCache:
    """A bounded LRU mapping ``(token, mode, bag) -> cover tuple``."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("cover cache maxsize must be >= 1")
        self._maxsize = maxsize
        self._entries: OrderedDict[CacheKey, tuple] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, token: int, mode: str, bag: Hashable) -> tuple | None:
        """The cached cover for ``bag``, or ``None``; refreshes recency."""
        key = (token, mode, bag)
        with self._lock:
            cover = self._entries.get(key)
            if cover is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cover

    def put(self, token: int, mode: str, bag: Hashable, cover: tuple) -> None:
        """Insert (or refresh) a cover, evicting the LRU entry if full."""
        key = (token, mode, bag)
        with self._lock:
            self._entries[key] = cover
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def resize(self, maxsize: int) -> None:
        """Change capacity; evicts oldest entries if shrinking."""
        if maxsize < 1:
            raise ValueError("cover cache maxsize must be >= 1")
        with self._lock:
            self._maxsize = maxsize
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def counts(self) -> tuple[int, int, int]:
        """One atomic ``(hits, misses, evictions)`` read.

        Hot paths that publish *deltas* must read all three under the
        lock — reading the fields one by one can interleave with a
        concurrent lookup and report a hit without its lookup (or vice
        versa), making deltas drift negative or double-count.
        """
        with self._lock:
            return self.hits, self.misses, self.evictions

    def stats(self) -> dict:
        """Cumulative counters plus current occupancy."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


#: The process-wide instance every cover call shares by default.
_GLOBAL_CACHE = CoverCache()

#: Interned edge-family fingerprints -> small integer tokens.
_FAMILY_TOKENS: dict[Hashable, int] = {}
_FAMILY_LOCK = Lock()


def cover_cache() -> CoverCache:
    """The shared process-wide cover cache."""
    return _GLOBAL_CACHE


def configure_cover_cache(maxsize: int) -> CoverCache:
    """Resize the shared cache (the CLI's ``--cover-cache-size``)."""
    _GLOBAL_CACHE.resize(maxsize)
    return _GLOBAL_CACHE


def family_token(fingerprint: Hashable) -> int:
    """Intern an edge-family fingerprint to a stable small integer.

    Tokens are compared by content, so structurally identical edge
    families (same names, same vertex sets) share cache entries while
    different families can never collide — the full fingerprint is kept
    as the interning key, not a hash of it.
    """
    with _FAMILY_LOCK:
        token = _FAMILY_TOKENS.get(fingerprint)
        if token is None:
            token = len(_FAMILY_TOKENS)
            _FAMILY_TOKENS[fingerprint] = token
        return token
