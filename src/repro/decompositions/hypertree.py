"""Hypertree decompositions and det-k-decomp (Section 2.3.2).

Generalized hypertree decompositions drop one condition of Gottlob,
Leone and Scarcello's *hypertree decompositions*; this module supplies
the original notion, completing the width hierarchy the thesis works in:

    ghw(H)  <=  hw(H)  <=  tw(H) + 1.

A hypertree decomposition is a *rooted* GHD that additionally satisfies
the **descendant condition** (condition 4 of the original definition):

    for each node p:  var(lambda(p)) ∩ chi(T_p)  ⊆  chi(p),

i.e. a vertex of a covering hyperedge that occurs anywhere in p's
subtree must already be in p's bag. Unlike ghw (NP-complete even for
fixed k), deciding ``hw(H) <= k`` is polynomial for fixed k; the
decision procedure implemented here is the det-k-decomp scheme of
Gottlob and Samer: recursively split the hypergraph's edge set into
components below candidate lambda-separators of at most k edges,
memoising failed (component, connector) subproblems.

The construction fixes ``chi(p) = var(lambda(p)) ∩ (V(component) ∪
connector)``, which makes the descendant condition hold automatically;
completeness for that chi-choice follows from the hypertree normal form
of Gottlob, Leone and Scarcello. The validator checks all four
conditions independently, and tests cross-check ``ghw <= hw`` against
BB-ghw plus known closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.tree_decomposition import DecompositionError
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import EdgeName, Hypergraph


@dataclass
class HypertreeDecomposition:
    """A rooted GHD satisfying the descendant condition."""

    ghd: GeneralizedHypertreeDecomposition = field(
        default_factory=GeneralizedHypertreeDecomposition
    )

    @property
    def root(self) -> int | None:
        return self.ghd.tree.root

    def width(self) -> int:
        return self.ghd.width()

    def nodes(self) -> list[int]:
        return self.ghd.nodes()

    def bag(self, node: int) -> set[Vertex]:
        return self.ghd.bag(node)

    def cover(self, node: int) -> set[EdgeName]:
        return self.ghd.cover(node)

    def subtree_vertices(self, node: int) -> set[Vertex]:
        """``chi(T_node)``: all bag vertices in the subtree under node."""
        parents = self.ghd.tree.parent_map()
        children: dict[int, list[int]] = {n: [] for n in parents}
        for child, parent in parents.items():
            if parent is not None:
                children[parent].append(child)
        gathered: set[Vertex] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            gathered |= self.ghd.tree.bags[current]
            stack.extend(children[current])
        return gathered

    def validate(self, hypergraph: Hypergraph) -> None:
        """All four conditions of a hypertree decomposition."""
        self.ghd.validate(hypergraph)
        edges = hypergraph.edges()
        for node in self.ghd.nodes():
            lambda_vars: set[Vertex] = set()
            for name in self.ghd.covers[node]:
                lambda_vars |= edges[name]
            subtree = self.subtree_vertices(node)
            if not (lambda_vars & subtree) <= self.ghd.tree.bags[node]:
                raise DecompositionError(
                    f"descendant condition violated at node {node}"
                )

    def __repr__(self) -> str:
        return f"HypertreeDecomposition(width={self.width()})"


@dataclass
class _Plan:
    """A decomposed subproblem: its node's labels and its child plans."""

    chi: set[Vertex]
    cover: set[EdgeName]
    children: list["_Plan"] = field(default_factory=list)


class _DetKDecomp:
    """One det-k-decomp run for a fixed ``k``.

    Subproblems return plans, and nodes are added only for the plan of
    the whole hypergraph: a separator whose later child fails must leave
    no nodes behind for its earlier, successful children.
    """

    def __init__(self, hypergraph: Hypergraph, k: int) -> None:
        self.hypergraph = hypergraph
        self.k = k
        self.edges = hypergraph.edges()
        self.edge_names = sorted(self.edges, key=repr)
        self.failures: set[
            tuple[frozenset[EdgeName], frozenset[Vertex]]
        ] = set()
        self.result = GeneralizedHypertreeDecomposition()

    # ------------------------------------------------------------------

    def run(self) -> HypertreeDecomposition | None:
        all_edges = frozenset(self.edge_names)
        if not all_edges:
            self.result.add_node(self.hypergraph.vertices(), set())
            return HypertreeDecomposition(ghd=self.result)
        plan = self._decompose(all_edges, frozenset())
        if plan is None:
            return None
        self.result.tree.root = self._build(plan)
        return HypertreeDecomposition(ghd=self.result)

    def _build(self, plan: _Plan) -> int:
        """Add ``plan``'s nodes to the result; return its root node id."""
        node = self.result.add_node(plan.chi, plan.cover)
        for child in plan.children:
            self.result.add_edge(node, self._build(child))
        return node

    # ------------------------------------------------------------------

    def _vertices_of(self, component: frozenset[EdgeName]) -> set[Vertex]:
        gathered: set[Vertex] = set()
        for name in component:
            gathered |= self.edges[name]
        return gathered

    def _components(
        self, component: frozenset[EdgeName], chi: set[Vertex]
    ) -> list[frozenset[EdgeName]]:
        """Split ``component`` by connectivity outside ``chi``.

        Edges entirely inside ``chi`` are absorbed (covered at the
        current node); the rest are grouped by reachability through
        vertices not in ``chi``.
        """
        remaining = [
            name for name in component if not self.edges[name] <= chi
        ]
        unassigned = set(remaining)
        groups: list[frozenset[EdgeName]] = []
        while unassigned:
            seed = unassigned.pop()
            group = {seed}
            frontier_vertices = self.edges[seed] - chi
            changed = True
            while changed:
                changed = False
                for name in list(unassigned):
                    if self.edges[name] & frontier_vertices:
                        group.add(name)
                        unassigned.discard(name)
                        frontier_vertices |= self.edges[name] - chi
                        changed = True
            groups.append(frozenset(group))
        return groups

    def _candidate_separators(
        self,
        component: frozenset[EdgeName],
        connector: frozenset[Vertex],
    ):
        """All lambda candidates: <= k edges covering the connector, at
        least one of them touching the component."""
        component_vertices = self._vertices_of(component)
        relevant = [
            name
            for name in self.edge_names
            if self.edges[name] & (component_vertices | connector)
        ]
        for size in range(1, self.k + 1):
            for subset in combinations(relevant, size):
                lambda_vars: set[Vertex] = set()
                for name in subset:
                    lambda_vars |= self.edges[name]
                if not connector <= lambda_vars:
                    continue
                if not any(
                    self.edges[name] & component_vertices for name in subset
                ):
                    continue
                yield frozenset(subset), lambda_vars

    def _decompose(
        self,
        component: frozenset[EdgeName],
        connector: frozenset[Vertex],
    ) -> _Plan | None:
        """Decompose ``component`` under ``connector``; return the plan
        of its subtree, or None."""
        key = (component, connector)
        if key in self.failures:
            return None

        component_vertices = self._vertices_of(component)

        # Base case: the whole component fits one lambda-label.
        if len(component) <= self.k:
            lambda_vars = component_vertices
            if connector <= lambda_vars:
                return _Plan(lambda_vars | connector, set(component))

        for separator, lambda_vars in self._candidate_separators(
            component, connector
        ):
            chi = lambda_vars & (component_vertices | connector)
            if not chi & component_vertices:
                continue  # no progress into the component
            children = self._components(component, chi)
            if any(child == component for child in children):
                continue  # separator did not split anything
            child_plans: list[_Plan] = []
            for child in children:
                child_connector = frozenset(
                    self._vertices_of(child) & chi
                )
                plan = self._decompose(child, child_connector)
                if plan is None:
                    break
                child_plans.append(plan)
            else:
                return _Plan(chi, set(separator), child_plans)

        self.failures.add(key)
        return None


def det_k_decomp(
    hypergraph: Hypergraph, k: int
) -> HypertreeDecomposition | None:
    """Decide ``hw(hypergraph) <= k`` constructively.

    Returns a validated hypertree decomposition of width at most ``k``,
    or ``None`` if none exists.
    """
    if k < 1:
        raise ValueError("width bound k must be >= 1")
    decomposition = _DetKDecomp(hypergraph, k).run()
    if decomposition is not None:
        decomposition.validate(hypergraph)
    return decomposition


def hypertree_width(
    hypergraph: Hypergraph, max_k: int | None = None
) -> tuple[int, HypertreeDecomposition]:
    """The hypertree width ``hw(hypergraph)`` with a witness.

    Tries ``k = 1, 2, ...`` until det-k-decomp succeeds (bounded by
    ``max_k`` or the number of hyperedges, which always suffices: a
    single node labelled with every hyperedge is a hypertree
    decomposition).
    """
    if hypergraph.num_edges() == 0:
        empty = GeneralizedHypertreeDecomposition()
        empty.add_node(hypergraph.vertices(), set())
        return 0, HypertreeDecomposition(ghd=empty)
    ceiling = max_k if max_k is not None else hypergraph.num_edges()
    for k in range(1, ceiling + 1):
        decomposition = det_k_decomp(hypergraph, k)
        if decomposition is not None:
            return k, decomposition
    raise ValueError(
        f"hw exceeds the search ceiling {ceiling}; raise max_k"
    )
