"""Reference implementations the mask-native code is tested against.

* :class:`ReferenceEliminationGraph` is the dict-of-sets elimination
  graph with an undo stack that the exact searches used before
  :class:`repro.hypergraphs.elimination_graph.EliminationGraph` moved to
  bitmasks. It is deliberately naive — every operation goes through
  :class:`~repro.hypergraphs.graph.Graph` — so the two can be compared
  operation by operation, including the iteration order of
  ``vertices()``.
* :func:`reference_greedy_set_cover` is the thesis's greedy loop
  (Figure 7.2) over dict-of-sets: every step scans all edges in
  insertion order and breaks ties with ``rng.choice`` or the smallest
  name by ``repr``.
* :func:`reference_elimination_bags` is the set-based bucket
  propagation of Figure 6.2, :func:`reference_ordering_width` the same
  propagation with Figure 6.2's early exit (what
  :func:`repro.decompositions.elimination.ordering_width` ran before it
  moved to the kernel), and :func:`make_reference_ghw_evaluator` the
  GA-ghw fitness (Figure 7.1) built from the bags and the greedy loop.
* :class:`ReferenceExactSetCoverSolver` is the frozenset branch and
  bound that :class:`repro.setcover.exact.ExactSetCoverSolver` ran before
  it became a facade over the bitmask kernel; uncached.
* :func:`reference_exact_cover_mask` is the mask branch and bound of
  :func:`repro.kernels.cover.exact_cover_mask` as it was before the
  pivot order was ranked once per bag: every search node re-counts the
  kept edges holding each uncovered vertex to pick its pivot.
* :func:`ceiling_lower_bound` is the textbook k-set-cover bound
  ``ceil(k / max edge size)``, which
  :func:`repro.setcover.lower_bounds.size_profile_lower_bound`
  dominates.
* :func:`reference_treewidth` is an exact treewidth by dynamic
  programming over vertex subsets. It builds no elimination ordering and
  uses no pruning rule or reduction, so it is an independent oracle for
  the exact tw searches. :func:`reference_ghw` is the same dynamic
  program with the bag ``{v} | Q(S - v, v)`` priced by a brute-force
  exact cover number, an oracle for the exact ghw searches.
* :func:`reference_greedy_ordering` is the loop behind the min-fill
  and min-degree heuristics of :mod:`repro.bounds.upper` as it ran
  before scores were kept per vertex: every step rescores every
  remaining vertex.
* :func:`reference_eager_astar` is A* over the search driver's
  ``Measure`` hooks as it ran before children were evaluated lazily:
  every generated child is PR2-filtered, eliminated and bounded before
  it is pushed.
* :func:`reference_minor_min_width`, :func:`reference_minor_gamma_r`,
  :func:`reference_gamma_r` and :func:`reference_degeneracy` are the
  seeded degree bounds of :mod:`repro.bounds.lower` as they ran before
  their scans moved into :class:`~repro.hypergraphs.graph.Graph`: one
  method call per vertex for every degree minimum, one ``add_edge`` per
  contracted neighbour, and gamma_R on every minor by a
  ``(degree, repr)`` sort.
* :func:`reference_windowed_cover_mask` is
  :func:`repro.kernels.cover.windowed_cover_mask` with its setup as a
  list scan: every restricted edge is checked against all kept edges.
* :func:`reference_remainder_cover_floor` is PR1's remainder cover
  floor computed from a fresh size list, as the ghw measure priced it
  before it kept one size profile per remaining set.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, count
from math import ceil

from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import EdgeName, Hypergraph
from repro.kernels.bithypergraph import BitHypergraph
from repro.kernels.cover import _search_mask, greedy_cover_mask
from repro.search.common import SearchBudget, SearchResult, certified, interrupted
from repro.setcover.greedy import UncoverableError


def reference_greedy_set_cover(
    target: Iterable[Vertex],
    edges: Mapping[EdgeName, Iterable[Vertex]],
    rng: random.Random | None = None,
) -> list[EdgeName]:
    """Greedy cover of ``target``: the pure-Python loop of Figure 7.2."""
    uncovered = set(target)
    if not uncovered:
        return []
    chosen: list[EdgeName] = []
    names = list(edges)
    while uncovered:
        best_gain = 0
        best_names: list[EdgeName] = []
        for name in names:
            gain = len(uncovered.intersection(edges[name]))
            if gain > best_gain:
                best_gain = gain
                best_names = [name]
            elif gain == best_gain and gain > 0:
                best_names.append(name)
        if not best_names:
            raise UncoverableError(
                f"vertices {sorted(map(repr, uncovered))} appear in no hyperedge"
            )
        if rng is None:
            pick = min(best_names, key=repr)
        else:
            pick = rng.choice(best_names)
        chosen.append(pick)
        uncovered.difference_update(edges[pick])
    return chosen


def _prune_dominated(
    edges: Mapping[EdgeName, frozenset[Vertex]], universe: set[Vertex]
) -> dict[EdgeName, frozenset[Vertex]]:
    """Restrict edges to the universe and drop dominated (subset) edges."""
    restricted: dict[EdgeName, frozenset[Vertex]] = {}
    for name, edge in edges.items():
        useful = edge & universe
        if useful:
            restricted[name] = frozenset(useful)
    names = sorted(restricted, key=lambda n: (-len(restricted[n]), repr(n)))
    kept: dict[EdgeName, frozenset[Vertex]] = {}
    for name in names:
        edge = restricted[name]
        if not any(edge <= other for other in kept.values()):
            kept[name] = edge
    return kept


class ReferenceExactSetCoverSolver:
    """Exact set cover by branch and bound over frozensets."""

    def __init__(self, edges: Mapping[EdgeName, Iterable[Vertex]]) -> None:
        self._edges = {name: frozenset(edge) for name, edge in edges.items()}
        self.nodes = 0

    def cover(self, target: Iterable[Vertex]) -> list[EdgeName]:
        universe = set(target)
        if not universe:
            return []
        edges = _prune_dominated(self._edges, universe)
        coverable: set[Vertex] = set()
        for edge in edges.values():
            coverable |= edge
        if not universe <= coverable:
            missing = universe - coverable
            raise UncoverableError(
                f"vertices {sorted(map(repr, missing))} appear in no hyperedge"
            )
        best = tuple(reference_greedy_set_cover(universe, edges))
        found = self._search(frozenset(universe), edges, (), len(best))
        return list(best if found is None else found)

    def cover_size(self, target: Iterable[Vertex]) -> int:
        return len(self.cover(target))

    def _search(
        self,
        uncovered: frozenset[Vertex],
        edges: dict[EdgeName, frozenset[Vertex]],
        chosen: tuple[EdgeName, ...],
        budget: int,
    ) -> tuple[EdgeName, ...] | None:
        """Find a cover strictly smaller than ``budget`` if one exists."""
        self.nodes += 1
        if not uncovered:
            return chosen if len(chosen) < budget else None
        max_gain = max(len(edge & uncovered) for edge in edges.values())
        if max_gain == 0:
            return None
        if len(chosen) + ceil(len(uncovered) / max_gain) >= budget:
            return None
        # Branch on the element contained in the fewest edges.
        counts: dict[Vertex, int] = {vertex: 0 for vertex in uncovered}
        for edge in edges.values():
            for vertex in edge & uncovered:
                counts[vertex] += 1
        pivot = min(uncovered, key=lambda v: (counts[v], repr(v)))
        candidates = sorted(
            (name for name, edge in edges.items() if pivot in edge),
            key=lambda n: (-len(edges[n] & uncovered), repr(n)),
        )
        best: tuple[EdgeName, ...] | None = None
        for name in candidates:
            found = self._search(
                uncovered - edges[name], edges, chosen + (name,), budget
            )
            if found is not None:
                best = found
                budget = len(found)
                if budget <= len(chosen) + 1:
                    break
        return best


def reference_exact_cover_mask(
    bh: BitHypergraph, bag_mask: int, nodes: list[int] | None = None
) -> tuple[int, ...]:
    """An optimal cover of ``bag_mask`` by edge indices of ``bh``.

    The branch and bound of :func:`repro.kernels.cover.exact_cover_mask`
    with its pivot picked per node: restrict the edges meeting the bag
    to it, drop dominated ones (largest first, ties by ``tie_rank``),
    start from the greedy cover, and at every node branch on the
    uncovered bit held by the fewest kept edges (lowest bit on ties).
    ``nodes[0]``, when given, counts the search nodes.
    """
    if not bag_mask:
        return ()
    restricted = [
        (i, mask & bag_mask)
        for i, mask in enumerate(bh.edge_masks)
        if mask & bag_mask
    ]
    coverable = 0
    for _i, useful in restricted:
        coverable |= useful
    if bag_mask & ~coverable:
        missing = bag_mask & ~coverable
        names = sorted(
            repr(vertex)
            for i, vertex in enumerate(bh.vertices)
            if missing >> i & 1
        )
        raise UncoverableError(f"vertices {names} appear in no hyperedge")
    restricted.sort(key=lambda item: (-item[1].bit_count(), bh.tie_rank[item[0]]))
    kept: list[tuple[int, int]] = []
    for i, mask in restricted:
        if not any(mask & ~other == 0 for _j, other in kept):
            kept.append((i, mask))
    counter = [0] if nodes is None else nodes

    def search(uncovered: int, chosen: list[int], budget: int) -> list[int] | None:
        counter[0] += 1
        if not uncovered:
            return list(chosen) if len(chosen) < budget else None
        max_gain = max((mask & uncovered).bit_count() for _i, mask in kept)
        if max_gain == 0:
            return None
        if len(chosen) + ceil(uncovered.bit_count() / max_gain) >= budget:
            return None
        pivot_bit = -1
        pivot_count = len(kept) + 1
        probe = uncovered
        while probe:
            low = probe & -probe
            held = sum(1 for _i, mask in kept if mask & low)
            if held < pivot_count:
                pivot_count = held
                pivot_bit = low
            probe ^= low
        candidates = sorted(
            (item for item in kept if item[1] & pivot_bit),
            key=lambda item: (-(item[1] & uncovered).bit_count(), bh.tie_rank[item[0]]),
        )
        best: list[int] | None = None
        for index, mask in candidates:
            chosen.append(index)
            found = search(uncovered & ~mask, chosen, budget)
            chosen.pop()
            if found is not None:
                best = found
                budget = len(found)
                if budget <= len(chosen) + 1:
                    break
        return best

    greedy = list(greedy_cover_mask(bh, bag_mask))
    found = search(bag_mask, [], len(greedy))
    return tuple(greedy if found is None else found)


def reference_elimination_bags(
    graph: Graph, ordering: Sequence[Vertex]
) -> dict[Vertex, set[Vertex]]:
    """Bag ``{v} | N(v)`` per eliminated vertex, by set-based propagation."""
    position = {vertex: i for i, vertex in enumerate(ordering)}
    if len(position) != len(ordering) or set(position) != graph.vertices():
        raise ValueError("ordering is not a permutation of the vertices")
    forward: dict[Vertex, set[Vertex]] = {
        vertex: {
            neighbour
            for neighbour in graph.neighbours(vertex)
            if position[neighbour] > position[vertex]
        }
        for vertex in ordering
    }
    bags: dict[Vertex, set[Vertex]] = {}
    for vertex in ordering:
        clique = forward[vertex]
        bags[vertex] = {vertex} | clique
        if clique:
            successor = min(clique, key=position.__getitem__)
            forward[successor] |= clique - {successor}
    return bags


def reference_ordering_width(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """Width ``max |bag| - 1`` by set-based propagation, stopping once
    the width reaches the number of vertices still to eliminate minus
    one (no later bag can exceed it)."""
    position = {vertex: i for i, vertex in enumerate(ordering)}
    if len(position) != len(ordering) or set(position) != graph.vertices():
        raise ValueError("ordering is not a permutation of the vertices")
    forward: dict[Vertex, set[Vertex]] = {
        vertex: {
            neighbour
            for neighbour in graph.neighbours(vertex)
            if position[neighbour] > position[vertex]
        }
        for vertex in ordering
    }
    width = 0
    total = len(ordering)
    for index, vertex in enumerate(ordering):
        remaining = total - index - 1
        if width >= remaining:
            break
        clique = forward[vertex]
        width = max(width, len(clique))
        if clique:
            successor = min(clique, key=position.__getitem__)
            forward[successor] |= clique - {successor}
    return width


def make_reference_ghw_evaluator(
    hypergraph: Hypergraph, rng: random.Random | None = None
):
    """GA-ghw fitness (Figure 7.1) on the pure-Python oracles."""
    primal = hypergraph.primal_graph()
    edges = hypergraph.edges()

    def evaluate(ordering: Sequence[Vertex]) -> int:
        bags = reference_elimination_bags(primal, list(ordering))
        return max(
            (
                len(reference_greedy_set_cover(bag, edges, rng=rng))
                for bag in bags.values()
            ),
            default=0,
        )

    return evaluate


@dataclass
class _EliminationRecord:
    """Everything needed to undo one elimination."""

    vertex: Vertex
    neighbours: set[Vertex]
    fill_edges: list[tuple[Vertex, Vertex]] = field(default_factory=list)


class ReferenceEliminationGraph:
    """A :class:`Graph` copy with an elimination/restore stack."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph.copy()
        self._stack: list[_EliminationRecord] = []

    def eliminate(self, vertex: Vertex) -> set[Vertex]:
        neighbours = self._graph.neighbours(vertex)
        record = _EliminationRecord(vertex=vertex, neighbours=neighbours)
        neighbour_list = list(neighbours)
        for i, u in enumerate(neighbour_list):
            for v in neighbour_list[i + 1 :]:
                if not self._graph.has_edge(u, v):
                    self._graph.add_edge(u, v)
                    record.fill_edges.append((u, v))
        self._graph.remove_vertex(vertex)
        self._stack.append(record)
        return neighbours

    def restore(self) -> Vertex:
        if not self._stack:
            raise IndexError("no elimination to restore")
        record = self._stack.pop()
        for u, v in record.fill_edges:
            self._graph.remove_edge(u, v)
        self._graph.add_vertex(record.vertex)
        for neighbour in record.neighbours:
            self._graph.add_edge(record.vertex, neighbour)
        return record.vertex

    def switch_to(self, prefix: Sequence[Vertex]) -> None:
        current = self.eliminated()
        shared = 0
        for done, wanted in zip(current, prefix):
            if done != wanted:
                break
            shared += 1
        while len(self._stack) > shared:
            self.restore()
        for vertex in prefix[shared:]:
            self.eliminate(vertex)

    def eliminated(self) -> list[Vertex]:
        return [record.vertex for record in self._stack]

    def graph(self) -> Graph:
        """The live graph (read-only by convention)."""
        return self._graph

    def vertices(self) -> set[Vertex]:
        return self._graph.vertices()

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        return self._graph.neighbours(vertex)

    def degree(self, vertex: Vertex) -> int:
        return self._graph.degree(vertex)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self._graph.has_edge(u, v)

    def fill_in(self, vertex: Vertex) -> int:
        return self._graph.fill_in(vertex)

    def num_vertices(self) -> int:
        return self._graph.num_vertices()


def ceiling_lower_bound(k: int, edge_sizes: Iterable[int]) -> int:
    """``ceil(k / max size)``; 0 when ``k <= 0``; raises without edges."""
    if k <= 0:
        return 0
    largest = max(edge_sizes, default=0)
    if largest == 0:
        raise ValueError("cannot cover vertices without hyperedges")
    return ceil(k / largest)


def _elimination_dp(graph: Graph, bag_cost) -> int:
    """``W(V)`` of the subset dynamic program behind the width oracles.

    ``W(S)`` is the width of the best way to eliminate exactly the set
    ``S`` first; eliminating ``v`` last within ``S`` produces the bag
    ``{v} | Q(S - v, v)``, where ``Q(S - v, v)`` is the set of vertices
    outside ``S`` that ``v`` reaches through ``S - v`` (Bodlaender, Fomin,
    Koster, Kratsch and Thilikos, "On exact algorithms for treewidth",
    2006)::

        W(S) = min over v in S of max(W(S - v), bag_cost(bag))

    Bags are masks over ``labels``, the list of ``graph``'s vertices;
    ``bag_cost(labels, bag)`` prices one. ``Q`` is a plain reachability
    set on the input graph, so no elimination graph is built.
    Exponential: meant for graphs of at most about 15 vertices.
    """
    labels = list(graph.vertices())
    index = {vertex: i for i, vertex in enumerate(labels)}
    adjacency = [0] * len(labels)
    for vertex in labels:
        for neighbour in graph.neighbours(vertex):
            adjacency[index[vertex]] |= 1 << index[neighbour]

    def reach(inside: int, v: int) -> int:
        """``Q(inside, v)``: vertices outside ``inside | {v}`` adjacent to
        the component of ``v`` in the subgraph induced by ``inside | {v}``."""
        component = 1 << v
        frontier = component
        border = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            border |= adjacency[low.bit_length() - 1]
            grown = border & inside & ~component
            component |= grown
            frontier |= grown
        return border & ~inside & ~(1 << v)

    @lru_cache(maxsize=None)
    def width(subset: int) -> int:
        if not subset:
            return 0
        best: int | None = None
        rest = subset
        while rest:
            low = rest & -rest
            rest ^= low
            without = subset ^ low
            bag = low | reach(without, low.bit_length() - 1)
            candidate = max(width(without), bag_cost(labels, bag))
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best

    return width((1 << len(labels)) - 1)


def reference_treewidth(graph: Graph) -> int:
    """Exact treewidth: :func:`_elimination_dp` with a bag costing its
    size minus one, so no pruning rule or reduction is involved."""
    return _elimination_dp(graph, lambda _labels, bag: bag.bit_count() - 1)


def reference_ghw(hypergraph: Hypergraph) -> int:
    """Exact generalized hypertree width over elimination sets.

    Elimination orderings are complete for ghw (Theorems 2 and 3), so
    ghw is :func:`_elimination_dp` on the primal graph with a bag costing
    its exact cover number over the hyperedges — found by trying edge
    combinations of growing size, with neither a bound nor a reduction
    nor a pruning rule. Raises ``UncoverableError`` when a vertex lies in
    no hyperedge.
    """
    edges = [edge for edge in hypergraph.edge_sets() if edge]

    @lru_cache(maxsize=None)
    def cover_number(bag: frozenset) -> int:
        restricted = list({edge & bag for edge in edges if edge & bag})
        for size in range(len(restricted) + 1):
            for combination in combinations(restricted, size):
                if frozenset().union(*combination) >= bag:
                    return size
        raise UncoverableError(
            f"vertices {sorted(map(repr, bag - frozenset().union(*restricted)))}"
            " appear in no hyperedge"
        )

    def bag_cost(labels: list[Vertex], bag: int) -> int:
        return cover_number(
            frozenset(vertex for i, vertex in enumerate(labels) if bag >> i & 1)
        )

    return _elimination_dp(hypergraph.primal_graph(), bag_cost)



def reference_greedy_ordering(
    graph: Graph,
    score: Callable[[EliminationGraph, Vertex], int],
    rng: random.Random | None = None,
) -> list[Vertex]:
    """At every step rescore every remaining vertex (in ``vertices()``
    order) and eliminate a minimum, the tie picked by ``rng.choice`` or,
    without ``rng``, the smallest ``repr``."""
    working = EliminationGraph(graph)
    ordering: list[Vertex] = []
    while working.num_vertices() > 0:
        best_score: int | None = None
        best: list[Vertex] = []
        for vertex in working.vertices():
            value = score(working, vertex)
            if best_score is None or value < best_score:
                best_score = value
                best = [vertex]
            elif value == best_score:
                best.append(vertex)
        choice = min(best, key=repr) if rng is None else rng.choice(best)
        working.eliminate(choice)
        ordering.append(choice)
    return ordering


def reference_eager_astar(
    measure,
    node_limit: int | None = None,
    use_pr2: bool = True,
    rng: random.Random | None = None,
) -> SearchResult:
    """A* over a :class:`~repro.search.driver.Measure` as
    :func:`repro.search.driver.astar` ran it before children were
    evaluated lazily: an expansion runs PR2, the elimination, forcing and
    the bound of every generated child and pushes it with its full
    ``f = max(g, h, f(parent))``.

    Without a portfolio bus and a time limit; the counters, spans and
    checkpoints are left out. Expanded states and the result are what
    the driver produced, so the lazy driver can be held to the same
    expansions in the same order.
    """
    budget = SearchBudget(node_limit=node_limit)
    name = f"astar-{measure.kind}"
    working = measure.working
    if measure.finish(0, 1) == 0:
        return certified(0, sorted(working.vertices(), key=repr), budget, name)
    root_lb, ub, ub_ordering = measure.root_bounds(rng)
    if root_lb >= ub:
        return certified(ub, ub_ordering, budget, name)
    index = working.index
    lb = root_lb
    sequence = count()
    best_g: dict[int, int] = {working.alive: 0}
    reduction = measure.reduce(lb)
    root_children = (
        tuple(sorted(working.vertices(), key=repr))
        if reduction is None
        else (reduction,)
    )
    heap = [
        (lb, 0, next(sequence), 0, working.alive, (), root_children,
         reduction is not None)
    ]
    while heap:
        if budget.exhausted():
            return interrupted(lb, ub, ub_ordering, budget, name)
        f, neg_depth, _tie, g, alive, prefix, children, forced = heapq.heappop(
            heap
        )
        if measure.dedup and g > best_g[alive]:
            continue
        budget.charge()
        lb = max(lb, f)
        working.switch_to(prefix)
        width = measure.finish(g, g)
        if width is not None and width <= g:
            ordering = list(prefix) + sorted(working.vertices(), key=repr)
            return certified(g, ordering, budget, name)
        for child in children:
            child_g = max(g, measure.bag_cost(child))
            if measure.dedup:
                key = alive ^ (1 << index[child])
                if best_g.get(key, child_g + 1) <= child_g:
                    continue
                best_g[key] = child_g
            grandchildren = [v for v in working.vertices() if v != child]
            if use_pr2 and not forced:
                grandchildren = measure.pr2(child, grandchildren)
            working.eliminate(child)
            reduction = measure.reduce(max(child_g, lb))
            h = measure.lower()
            if reduction is not None:
                grandchildren = [reduction]
            child_f = max(child_g, h, f)
            if child_f < ub:
                heapq.heappush(
                    heap,
                    (
                        child_f, neg_depth - 1, next(sequence), child_g,
                        working.alive, prefix + (child,), tuple(grandchildren),
                        reduction is not None,
                    ),
                )
            working.restore()
    return certified(ub, ub_ordering, budget, name)


def _reference_min_degree_vertex(
    graph: Graph, rng: random.Random | None
) -> Vertex:
    lowest = min(graph.degree(v) for v in graph)
    candidates = [v for v in graph if graph.degree(v) == lowest]
    if rng is None:
        return min(candidates, key=repr)
    return rng.choice(candidates)


def _reference_contract_into_min_neighbour(
    graph: Graph, vertex: Vertex, rng: random.Random | None
) -> None:
    neighbours = graph.neighbours(vertex)
    if not neighbours:
        graph.remove_vertex(vertex)
        return
    lowest = min(graph.degree(u) for u in neighbours)
    candidates = [u for u in neighbours if graph.degree(u) == lowest]
    if rng is None:
        partner = min(candidates, key=repr)
    else:
        partner = rng.choice(candidates)
    # Graph.contract(partner, vertex) as it was: one add_edge per
    # neighbour of ``vertex``, read from its live set, then remove_vertex.
    for neighbour in graph._adj[vertex]:
        if neighbour != partner:
            graph.add_edge(partner, neighbour)
    graph.remove_vertex(vertex)


def reference_minor_min_width(
    graph: Graph, rng: random.Random | None = None
) -> int:
    """Figure 4.7, one ``Graph`` method call per vertex and contraction."""
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        vertex = _reference_min_degree_vertex(working, rng)
        bound = max(bound, working.degree(vertex))
        _reference_contract_into_min_neighbour(working, vertex, rng)
    return bound


def reference_degeneracy(graph: Graph, rng: random.Random | None = None) -> int:
    """MMD, one ``Graph`` method call per vertex for every degree minimum."""
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        vertex = _reference_min_degree_vertex(working, rng)
        bound = max(bound, working.degree(vertex))
        working.remove_vertex(vertex)
    return bound


def reference_gamma_r(graph: Graph) -> int:
    """gamma_R by sorting the vertices on ``(degree, repr)`` and finding
    the first that misses a predecessor."""
    vertices = sorted(graph.vertices(), key=lambda v: (graph.degree(v), repr(v)))
    n = len(vertices)
    if n == 0:
        return 0
    for index, vertex in enumerate(vertices):
        predecessors = vertices[:index]
        if any(not graph.has_edge(vertex, other) for other in predecessors):
            return graph.degree(vertex)
    return n - 1


def reference_minor_gamma_r(
    graph: Graph, rng: random.Random | None = None
) -> int:
    """Figure 4.8, evaluating gamma_R on every minor."""
    working = graph.copy()
    bound = 0
    while working.num_vertices() > 0:
        bound = max(bound, reference_gamma_r(working))
        if working.num_vertices() == 1:
            break
        vertex = _reference_min_degree_vertex(working, rng)
        _reference_contract_into_min_neighbour(working, vertex, rng)
    return bound


def reference_windowed_cover_mask(
    bh: BitHypergraph,
    bag_mask: int,
    g: int,
    limit: int | None,
    nodes: list[int] | None = None,
) -> tuple[tuple[int, ...], int]:
    """:func:`repro.kernels.cover.windowed_cover_mask` with the setup it
    had before dominance was found on incidence masks: each restricted
    edge is tested against the whole kept list, and each pivot lists
    its holders by scanning the kept list again."""
    if not bag_mask:
        return (), 0
    restricted: list[tuple[int, int]] = []
    coverable = 0
    scan = 0
    probe = bag_mask
    while probe:
        low = probe & -probe
        scan |= bh.incidence_masks[low.bit_length() - 1]
        probe ^= low
    while scan:
        low = scan & -scan
        scan ^= low
        i = low.bit_length() - 1
        useful = bh.edge_masks[i] & bag_mask
        restricted.append((i, useful))
        coverable |= useful
    if bag_mask & ~coverable:
        missing = bag_mask & ~coverable
        names = sorted(
            repr(vertex)
            for i, vertex in enumerate(bh.vertices)
            if missing >> i & 1
        )
        raise UncoverableError(f"vertices {names} appear in no hyperedge")
    tie_rank = bh.tie_rank
    restricted.sort(key=lambda item: (-item[1].bit_count(), tie_rank[item[0]]))
    kept: list[tuple[int, int, int]] = []
    for i, mask in restricted:
        if not any(mask & ~other == 0 for _r, _i, other in kept):
            kept.append((tie_rank[i], i, mask))

    best = list(greedy_cover_mask(bh, bag_mask))
    budget = len(best)
    floor = 0
    need = bag_mask.bit_count()
    for _r, _i, mask in kept:
        floor += 1
        need -= mask.bit_count()
        if need <= 0:
            break
    if budget <= g or floor == budget or (limit is not None and floor >= limit):
        return tuple(best), floor
    if limit is not None and limit < budget:
        budget = limit
    done = max(g, floor)

    pivots: list[tuple[int, list[tuple[int, int, int]]]] = []
    probe = bag_mask
    while probe:
        low = probe & -probe
        probe ^= low
        pivots.append((low, [item for item in kept if item[2] & low]))
    pivots.sort(key=lambda pivot: (len(pivot[1]), pivot[0]))

    counter = [0] if nodes is None else nodes
    masks = [mask for _r, _i, mask in kept]
    found = _search_mask(bag_mask, masks, pivots, [], budget, done, counter)
    if found is None:
        return tuple(best), budget
    return tuple(found), floor if len(found) <= done else len(found)


def reference_remainder_cover_floor(bh: BitHypergraph, alive: int) -> int:
    """PR1's cover floor of the remainder ``alive`` from a fresh list of
    the restricted edge sizes; 0 when the edges cannot cover it."""
    need = alive.bit_count()
    if need <= 0:
        return 0
    sizes = [size for edge in bh.edge_masks if (size := (edge & alive).bit_count())]
    for m, size in enumerate(sorted(sizes, reverse=True), start=1):
        need -= size
        if need <= 0:
            return m
    return 0
