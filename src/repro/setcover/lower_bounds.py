"""Lower bounds for the k-set-cover problem (Section 8.1.1).

The thesis's ghw lower bound ``tw-ksc-width`` needs, for a number ``k``, a
lower bound on *how many hyperedges any k-element vertex set can require*.
Because the adversarial k-set is unknown, a valid bound must hold for
every possible k-subset of vertices. ``size_profile_lower_bound`` is
such a bound: the best imaginable cover uses the largest edges
disjointly, so the smallest ``m`` with ``|h_1| + ... + |h_m| >= k``
(edge sizes sorted descending) edges are always necessary. Cheap and
surprisingly effective on uniform hypergraphs, it dominates the
textbook ``ceil(k / max edge size)`` (kept in ``tests/reference.py``
and tested against it), and it is monotone in ``k``, which the
branch-and-bound relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from itertools import accumulate

from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import EdgeName


def size_profile_lower_bound(k: int, edge_sizes: Iterable[int]) -> int:
    """Smallest ``m`` such that the ``m`` largest edges total >= k vertices.

    Any cover of a k-element set touches at least k vertex slots, and the
    ``m`` chosen edges cannot jointly offer more slots than the ``m``
    largest edges do — so fewer than the returned ``m`` edges can never
    suffice, whichever k vertices the adversary picks.
    """
    return profile_lower_bound(k, size_profile(edge_sizes))


def size_profile(edge_sizes: Iterable[int]) -> list[int]:
    """The prefix sums of ``edge_sizes`` sorted largest first: entry
    ``m - 1`` is the most vertex slots ``m`` edges can offer."""
    return list(accumulate(sorted(edge_sizes, reverse=True)))


def profile_lower_bound(k: int, profile: list[int]) -> int:
    """:func:`size_profile_lower_bound` read off a :func:`size_profile`
    by bisection; raises :class:`ValueError` when ``k`` exceeds its
    total."""
    if k <= 0:
        return 0
    m = bisect_left(profile, k)
    if m == len(profile):
        total = profile[-1] if profile else 0
        raise ValueError(
            f"hyperedges cover only {total} vertex slots; cannot cover {k}"
        )
    return m + 1


def k_set_cover_lower_bound(
    k: int, edges: Mapping[EdgeName, frozenset[Vertex]]
) -> int:
    """The strongest available bound for covering any ``k`` vertices
    with ``edges``: the size-profile bound."""
    return size_profile_lower_bound(k, [len(edge) for edge in edges.values()])
