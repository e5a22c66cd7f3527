"""Strategy specifications for the anytime portfolio.

A :class:`StrategySpec` names one configured solver in a race: which
family to run (``kind``), its RNG seed, its job count, and a bag of
family-specific options (GA parameters, annealing schedule, node limits).
Specs are plain data — JSON round-trippable so a checkpointed race can be
resumed with the exact strategy set it started with.

The kinds are the rows of :data:`repro.core.solvers.SOLVERS`: the exact
searches (``bb``, ``astar``) contribute lower bounds and certification,
the heuristics (``ga``, ``saiga``, ``sa``, ``tabu`` and the ordering
heuristics) contribute fast upper bounds for the exact searches to
prune against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.solvers import SOLVERS, lookup

EXACT_KINDS = frozenset(kind for (kind, _), row in SOLVERS.items() if row.exact)


@dataclass
class StrategySpec:
    """One configured solver entry in a portfolio race."""

    name: str
    kind: str
    seed: int = 0
    jobs: int = 1
    options: dict = field(default_factory=dict)
    """Family-specific keyword options (e.g. GA ``population_size``,
    SA ``initial_temperature``, search ``node_limit``)."""

    def validated(self, measure: str) -> "StrategySpec":
        lookup(self.kind, measure)
        if not self.name:
            raise ValueError("strategy needs a name")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        return self

    @property
    def exact(self) -> bool:
        return self.kind in EXACT_KINDS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "jobs": self.jobs,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StrategySpec":
        """Rebuild a spec; a ``"backend"`` key from older checkpoints,
        which picked between equivalent fitness kernels, is ignored."""
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            seed=int(data.get("seed", 0)),
            jobs=int(data.get("jobs", 1)),
            options=dict(data.get("options", {})),
        )


def default_portfolio(measure: str, seed: int = 0) -> list[StrategySpec]:
    """The standard 4-strategy race: one exact search + three heuristics.

    BB (rather than A*) is the default exact member because its anytime
    incumbent improves continuously and it prunes directly against the
    heuristics' published upper bounds.
    """
    kinds = ["bb", "ga", "sa", "tabu"]
    return parse_strategies(",".join(kinds), measure, seed=seed)


def parse_strategies(
    text: str, measure: str, seed: int = 0
) -> list[StrategySpec]:
    """Parse a CLI strategy list like ``"bb,ga,sa,tabu"``.

    Duplicate kinds are allowed (e.g. ``"ga,ga,ga"`` races three GA
    seeds); each occurrence gets a distinct name and a distinct seed
    (``seed + position``) so the runs diverge.
    """
    kinds = [token.strip() for token in text.split(",") if token.strip()]
    if not kinds:
        raise ValueError("strategy list is empty")
    counts: dict[str, int] = {}
    specs: list[StrategySpec] = []
    for index, kind in enumerate(kinds):
        counts[kind] = counts.get(kind, 0) + 1
        name = kind if kinds.count(kind) == 1 else f"{kind}-{counts[kind]}"
        specs.append(
            StrategySpec(name=name, kind=kind, seed=seed + index).validated(
                measure
            )
        )
    return specs
