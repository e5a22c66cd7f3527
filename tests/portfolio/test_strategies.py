"""Strategy specs: parsing, validation, JSON round trips."""

import pytest

from repro.portfolio.strategies import (
    StrategySpec,
    default_portfolio,
    parse_strategies,
)


class TestParseStrategies:
    def test_simple_list(self):
        specs = parse_strategies("bb,ga,sa,tabu", "ghw")
        assert [s.kind for s in specs] == ["bb", "ga", "sa", "tabu"]
        assert [s.name for s in specs] == ["bb", "ga", "sa", "tabu"]

    def test_duplicates_get_distinct_names_and_seeds(self):
        specs = parse_strategies("ga,ga,ga", "tw", seed=10)
        assert [s.name for s in specs] == ["ga-1", "ga-2", "ga-3"]
        assert [s.seed for s in specs] == [10, 11, 12]

    def test_whitespace_tolerated(self):
        specs = parse_strategies(" bb , sa ", "tw")
        assert [s.kind for s in specs] == ["bb", "sa"]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_strategies(" , ", "tw")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            parse_strategies("bb,quantum", "tw")

    def test_saiga_is_ghw_only(self):
        assert parse_strategies("saiga", "ghw")[0].kind == "saiga"
        with pytest.raises(ValueError, match="only applies to ghw"):
            parse_strategies("saiga", "tw")


class TestStrategySpec:
    def test_round_trip(self):
        spec = StrategySpec(
            name="ga-1", kind="ga", seed=7, jobs=2,
            options={"population_size": 20},
        )
        assert StrategySpec.from_dict(spec.to_dict()) == spec

    def test_legacy_backend_key_ignored(self):
        spec = StrategySpec(name="ga-1", kind="ga", seed=7, jobs=2)
        data = {**spec.to_dict(), "backend": "bitset"}
        assert "backend" not in spec.to_dict()
        assert StrategySpec.from_dict(data) == spec

    def test_exact_property(self):
        assert StrategySpec(name="bb", kind="bb").exact
        assert StrategySpec(name="astar", kind="astar").exact
        assert not StrategySpec(name="ga", kind="ga").exact

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="needs a name"):
            StrategySpec(name="", kind="bb").validated("tw")
        with pytest.raises(ValueError, match="jobs"):
            StrategySpec(name="ga", kind="ga", jobs=0).validated("tw")


class TestDefaultPortfolio:
    def test_default_mix(self):
        specs = default_portfolio("ghw")
        kinds = [s.kind for s in specs]
        assert "bb" in kinds  # one exact member for lower bounds
        assert len([k for k in kinds if k != "bb"]) >= 2
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)
