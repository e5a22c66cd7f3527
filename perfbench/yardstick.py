"""Host speed, measured next to every timed cell.

The benchmark runs on shared hosts whose speed drifts by 30-50% over
minutes and by up to 2x in bursts of seconds; no number of repetitions
averages that out of a run that lasts half a minute. So each pass times
three fixed pure-Python loops — dict updates, graph elimination on a
dict of sets, greedy covering with frozensets, the kinds of work the
solvers do — right after set-up and after every cell, and every timing
is also reported *scaled* to the reference host: divided by
:func:`slowness`, the mean over the loops of their time on the running
host over their time on the reference host.

The loops are the benchmark's own code, so a change to the library moves
the scaled figures in full. On a five-minute trace of a shared 2-vCPU
x86-64 VM in which raw cell times spread 28-52% between 35-second
windows, the window medians of the scaled times spread 3-11%.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

_RNG = random.Random(12345)
_GRAPH: dict[int, set[int]] = {v: set() for v in range(60)}
for _ in range(400):
    _u, _v = _RNG.randrange(60), _RNG.randrange(60)
    if _u != _v:
        _GRAPH[_u].add(_v)
        _GRAPH[_v].add(_u)
_EDGES = [frozenset(_RNG.sample(range(300), 4)) for _ in range(250)]
_BAGS = [frozenset(_RNG.sample(range(300), 40)) for _ in range(30)]


def _dict_loop() -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(100_000):
        key = i % 1024
        table[key] = table.get(key, 0) + i
        total += len({i, i + 1, i + 2} & {i + 1, i + 3})


def _elimination_loop() -> None:
    for _ in range(40):
        graph = {v: set(neighbours) for v, neighbours in _GRAPH.items()}
        while graph:
            vertex = min(graph, key=lambda v: (len(graph[v]), v))
            neighbours = graph.pop(vertex)
            for u in neighbours:
                graph[u].discard(vertex)
                graph[u] |= neighbours - {u}


def _cover_loop() -> None:
    for bag in _BAGS:
        uncovered = set(bag)
        while uncovered:
            best = max(_EDGES, key=lambda edge: len(edge & uncovered))
            if not best & uncovered:
                break
            uncovered -= best


#: (loop, seconds on the reference host): the fastest of 200 runs of
#: each loop on a 2-vCPU x86-64 VM with CPython 3.11.7.
_LOOPS = (
    (_dict_loop, 0.0399),
    (_elimination_loop, 0.0385),
    (_cover_loop, 0.0311),
)


def slowness() -> float:
    """This host's time for the loops over the reference host's (1 = as fast).

    The garbage collector is paused so that a large heap left by the
    previous cell does not read as a slow host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        ratios = []
        for loop, reference in _LOOPS:
            start = time.perf_counter()
            loop()
            ratios.append((time.perf_counter() - start) / reference)
        return statistics.fmean(ratios)
    finally:
        if collecting:
            gc.enable()
