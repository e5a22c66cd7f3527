"""Witness certification: claims are only as good as their witnesses."""

from repro.hypergraphs.graph import path_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.verify.certify import certify_ghw_witness, certify_tw_witness

TRIANGLE = Hypergraph({"ab": {"a", "b"}, "bc": {"b", "c"}, "ca": {"c", "a"}})


class TestTreewidthWitness:
    def test_exact_claim_certifies(self):
        certification = certify_tw_witness(path_graph(4), [0, 1, 2, 3], 1)
        assert certification.ok
        assert bool(certification)
        assert certification.witness_width == 1

    def test_strict_rejects_overclaim(self):
        # The solver said 2 but its own ordering achieves 1: with
        # deterministic tw evaluators that means a reporting bug.
        certification = certify_tw_witness(path_graph(4), [0, 1, 2, 3], 2)
        assert not certification.ok
        assert "must agree exactly" in certification.reason

    def test_lenient_accepts_better_witness(self):
        certification = certify_tw_witness(
            path_graph(4), [0, 1, 2, 3], 2, strict=False
        )
        assert certification.ok

    def test_underclaim_always_rejected(self):
        certification = certify_tw_witness(
            path_graph(4), [0, 1, 2, 3], 0, strict=False
        )
        assert not certification.ok
        assert "worse than the claimed" in certification.reason

    def test_missing_ordering_rejected(self):
        assert not certify_tw_witness(path_graph(4), [], 1).ok

    def test_incomplete_ordering_rejected(self):
        certification = certify_tw_witness(path_graph(4), [0, 1], 1)
        assert not certification.ok


class TestGhwWitness:
    def test_exact_claim_certifies_strict(self):
        certification = certify_ghw_witness(
            TRIANGLE, ["a", "b", "c"], 2, strict=True
        )
        assert certification.ok
        assert certification.witness_width == 2

    def test_heuristic_overclaim_allowed_lenient(self):
        # The heuristics score orderings with greedy covers (random ties
        # at jobs=1), so a claim above the exact-cover width of the same
        # ordering is legitimate.
        assert certify_ghw_witness(TRIANGLE, ["a", "b", "c"], 3).ok
        assert not certify_ghw_witness(
            TRIANGLE, ["a", "b", "c"], 3, strict=True
        ).ok

    def test_underclaim_rejected(self):
        certification = certify_ghw_witness(TRIANGLE, ["a", "b", "c"], 1)
        assert not certification.ok
        assert "worse than the claimed" in certification.reason

    def test_acyclic_width_one(self):
        chain = Hypergraph({"e1": {0, 1, 2}, "e2": {2, 3}})
        certification = certify_ghw_witness(
            chain, [0, 1, 2, 3], 1, strict=True
        )
        assert certification.ok
        assert certification.witness_width == 1

    def test_unknown_vertex_in_ordering_rejected(self):
        assert not certify_ghw_witness(TRIANGLE, ["a", "b", "zzz"], 2).ok
