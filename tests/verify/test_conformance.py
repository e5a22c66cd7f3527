"""The conformance matrix: cells certify and cross-cell relations hold
— and violated relations are actually detected."""

from repro.core.solvers import SOLVERS
from repro.verify.conformance import (
    CellResult,
    CellSpec,
    _cross_check,
    _parity_check,
    check_hypergraph,
    default_matrix,
    run_cell,
    run_conformance,
    run_portfolio_cells,
)
from repro.verify.generators import generate_instance


def _cell_result(
    name,
    measure="tw",
    kind="bb",
    status="optimal",
    lower=None,
    upper=None,
    witness=None,
    certified=True,
    jobs=1,
):
    return CellResult(
        cell=CellSpec(name=name, measure=measure, kind=kind, jobs=jobs),
        status=status,
        lower_bound=lower,
        upper_bound=upper,
        witness_width=witness if witness is not None else upper,
        certified=certified,
    )


class TestDefaultMatrix:
    def test_covers_families_backends_and_jobs(self):
        # one cell per solver-table row (no fitness-kernel axis), plus a
        # jobs=2 GA cell per measure
        matrix = default_matrix()
        kinds = {(c.measure, c.kind) for c in matrix}
        assert kinds == {(m, k) for k, m in SOLVERS}
        assert ("ghw", "saiga") in kinds and ("tw", "saiga") not in kinds
        assert len(matrix) == len(SOLVERS) + 2
        assert {(c.measure, c.kind) for c in matrix if c.jobs > 1} == {
            ("tw", "ga"),
            ("ghw", "ga"),
        }

    def test_tw_cells_all_strict(self):
        assert all(
            c.strict for c in default_matrix() if c.measure == "tw"
        )

    def test_ghw_strictness_tracks_evaluator(self):
        ghw = [c for c in default_matrix() if c.measure == "ghw"]
        assert all(c.strict == (c.kind in ("bb", "astar")) for c in ghw)


class TestRunCell:
    def test_exact_cell_certifies(self):
        instance = generate_instance(0)
        result = run_cell(
            CellSpec(name="bb-tw", measure="tw", kind="bb", strict=True),
            instance,
        )
        assert result.status == "optimal"
        assert result.certified
        assert result.witness_width == result.upper_bound

    def test_unknown_kind_is_error_not_crash(self):
        instance = generate_instance(0)
        result = run_cell(
            CellSpec(name="bogus", measure="tw", kind="bogus"), instance
        )
        assert result.status == "error"
        assert not result.certified


class TestCrossChecks:
    def test_clean_results_no_divergence(self):
        instance = generate_instance(0)
        results = [
            _cell_result("bb-tw", upper=3, lower=3),
            _cell_result("ga-tw", kind="ga", status="heuristic", upper=3),
        ]
        assert _cross_check(instance, results, "tw") == []

    def test_uncertified_cell_flagged(self):
        instance = generate_instance(0)
        results = [
            _cell_result(
                "ga-tw", kind="ga", status="heuristic", upper=3,
                certified=False,
            )
        ]
        kinds = [d.kind for d in _cross_check(instance, results, "tw")]
        assert kinds == ["uncertified"]

    def test_exact_disagreement_flagged(self):
        instance = generate_instance(0)
        results = [
            _cell_result("bb-tw", upper=3),
            _cell_result("astar-tw", kind="astar", upper=4),
        ]
        kinds = [d.kind for d in _cross_check(instance, results, "tw")]
        assert "exact-disagreement" in kinds

    def test_certified_width_below_proven_optimum_flagged(self):
        instance = generate_instance(0)
        results = [
            _cell_result("bb-tw", upper=4, lower=4),
            _cell_result(
                "ga-tw", kind="ga", status="heuristic", upper=2, witness=2
            ),
        ]
        kinds = [d.kind for d in _cross_check(instance, results, "tw")]
        assert "impossible-width" in kinds

    def test_lower_bound_crossing_certified_upper_flagged(self):
        instance = generate_instance(0)
        results = [
            _cell_result(
                "bb-tw", status="interrupted", lower=5, upper=None,
                witness=None,
            ),
            _cell_result(
                "ga-tw", kind="ga", status="heuristic", upper=3, witness=3
            ),
        ]
        kinds = [d.kind for d in _cross_check(instance, results, "tw")]
        assert "bound-crossing" in kinds

    def test_backend_parity_violation_flagged(self):
        # tw cells that differ only in job count must agree
        instance = generate_instance(0)
        results = [
            _cell_result("ga-tw", kind="ga", status="heuristic", upper=3),
            _cell_result(
                "ga-j2-tw", kind="ga", status="heuristic", upper=4, jobs=2
            ),
        ]
        divergences = _parity_check(instance, results, seed=0)
        assert [d.kind for d in divergences] == ["parity"]

    def test_parity_skips_ghw(self):
        # ghw fitness has random greedy ties at jobs=1 and deterministic
        # ones in pools, so disagreement across jobs is not a bug.
        instance = generate_instance(0)
        results = [
            _cell_result(
                "ga-ghw", measure="ghw", kind="ga", status="heuristic",
                upper=2,
            ),
            _cell_result(
                "ga-j2-ghw", measure="ghw", kind="ga", status="heuristic",
                upper=3, jobs=2,
            ),
        ]
        assert _parity_check(instance, results, seed=0) == []


class TestEndToEnd:
    def test_check_hypergraph_clean(self):
        verdict = check_hypergraph(generate_instance(1), portfolio=False)
        assert verdict.ok
        assert all(cell.certified for cell in verdict.cells)

    def test_portfolio_cells_clean(self):
        instance = generate_instance(2)
        cells, divergences = run_portfolio_cells(
            instance, "ghw", seed=2, time_limit=5.0
        )
        assert divergences == []
        names = [cell.cell.name for cell in cells]
        assert names == [
            "portfolio-ghw", "portfolio-killed-ghw", "portfolio-resumed-ghw"
        ]
        assert cells[0].certified and cells[2].certified

    def test_run_conformance_report(self):
        seen = []
        report = run_conformance(
            seeds=2, portfolio=False, progress=seen.append
        )
        assert report.ok
        assert len(report.verdicts) == 2
        assert len(seen) == 2
        assert report.cells_certified == report.cells_run
        assert "0 divergences" in report.summary()
        payload = report.to_dict()
        assert payload["ok"] and payload["instances"] == 2
