"""repro.kernels — the bitset compute kernels.

Everything the heuristics spend their time on — elimination-ordering
evaluation and per-bag set covers — runs here over interned bitmask
representations, with a process-wide cover cache and opt-in process-pool
population evaluation:

* :class:`BitGraph` / :class:`BitHypergraph` — vertices/edges interned
  to indices, bags and neighbourhoods as Python-int bitmasks,
* :func:`bit_elimination_bags` / :func:`bit_ordering_width` /
  :func:`bit_ordering_ghw` — incremental bucket elimination over masks
  (:func:`repro.decompositions.elimination.elimination_bags` runs on
  it); :func:`bit_ordering_ghw` prices bags with greedy covers,
* :func:`greedy_cover_mask` — the library's one greedy set-cover loop,
  on bit-sliced gain counters over edge indices, with the thesis's
  random tie-breaks replayed exactly
  (:func:`repro.setcover.greedy.greedy_set_cover` runs on it), and
  :func:`cover_mask`, its deterministic form through the cover cache,
* :func:`exact_cover_mask` — the library's one exact set-cover search,
  and :func:`windowed_cover_mask`, the same search priced only inside a
  window ``(g, limit)``. Their one caller is
  :class:`repro.setcover.exact.ExactSetCoverSolver`, the exact-cover
  front end every exact cover goes through,
* :class:`CoverCache` — the shared, instrumented bag -> cover LRU
  (see ``docs/performance.md`` for its semantics),
* :class:`ParallelEvaluator` — opt-in ``--jobs N`` process-pool fitness
  evaluation for GA/SAIGA populations,
* :func:`minor_lower_bound` — minor-min-width and minor-gamma_R in one
  contraction pass over per-degree buckets, the per-node lower bound of
  the exact searches (``treewidth_lower_bound`` routes every
  ``rng=None`` request here).

Every GA/SAIGA/SA/tabu fitness evaluation runs on this kernel. The
greedy tie rule of ghw fitness follows the job count: random and
uncached at ``jobs=1``, deterministic and cached in pool workers (see
:mod:`repro.kernels.evaluators`). The pure-Python implementations are
kept as test oracles (``tests/reference.py``), and the property suite
holds the kernel to them.
"""

from repro._lazy import lazy_exports
from repro.kernels.bithypergraph import BitGraph, BitHypergraph, bits_of
from repro.kernels.cache import (
    CoverCache,
    configure_cover_cache,
    cover_cache,
    family_token,
)
from repro.kernels.cover import (
    cover_mask,
    exact_cover_mask,
    greedy_cover_mask,
    windowed_cover_mask,
)
from repro.kernels.elimination import (
    bit_elimination_bags,
    bit_ordering_ghw,
    bit_ordering_width,
)
from repro.kernels.evaluators import make_bit_ghw_evaluator, make_tw_evaluator
from repro.kernels.minor_bound import minor_lower_bound

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "parallel": ("ParallelEvaluator",),
})

__all__ = [
    "BitGraph",
    "BitHypergraph",
    "CoverCache",
    "ParallelEvaluator",
    "bit_elimination_bags",
    "bit_ordering_ghw",
    "bit_ordering_width",
    "bits_of",
    "configure_cover_cache",
    "cover_cache",
    "cover_mask",
    "exact_cover_mask",
    "family_token",
    "greedy_cover_mask",
    "make_bit_ghw_evaluator",
    "make_tw_evaluator",
    "minor_lower_bound",
    "windowed_cover_mask",
]
