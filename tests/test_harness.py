import json
from itertools import combinations

import pytest

from matroidlab import (
    GroundSet,
    Matroid,
    SetFamily,
    TheoremCheck,
    check_examples,
    enumerate_matroids,
    lookup_check,
    worked_examples,
    theorem_registry,
    verify,
)
from matroidlab import harness
from matroidlab import matroid as matroid_module
from matroidlab.errors import SearchCapExceeded, UnequalCardinality


def population(max_n):
    return [m for n in range(1, max_n + 1) for m in enumerate_matroids(n)]


class TestRegistry:
    def test_size_is_28(self):
        assert len(theorem_registry()) == 28

    def test_ids_unique(self):
        ids = [c.check_id for c in theorem_registry()]
        assert len(set(ids)) == len(ids)

    def test_lookup(self):
        check = lookup_check("thm_334")
        assert check.check_id == "thm_334"
        assert "dual" in check.statement

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            lookup_check("thm_9999")

    def test_expected_ids_present(self):
        ids = {c.check_id for c in theorem_registry()}
        assert {
            "prop_100", "thm_123", "prop_341", "cor_423", "prop_46", "prop_124",
            "lemma_e", "lemma_66", "thm_50", "prop_h", "thm_126", "prop_51_j",
            "prop_125", "prop_302_304", "prop_303", "prop_305_306", "prop_339",
            "cor_336", "thm_321", "thm_52", "thm_33", "cor_109", "prop_103",
            "thm_334", "thm_552", "prop_118", "thm_120", "dual_involution",
        } == ids


class TestVerify:
    def test_population_up_to_three_passes_everything(self):
        report = verify(population(3))
        assert report.total == 23
        assert report.failures == 0
        for outcome in report.outcomes:
            assert outcome.applicable == outcome.passed + outcome.failed
            assert outcome.failed == 0
            assert outcome.witnesses == []

    def test_applicability_tallies_are_honest(self):
        report = verify(population(3))
        by_id = {o.check_id: o for o in report.outcomes}
        # universal checks see the whole population
        assert by_id["prop_100"].applicable == 23
        assert by_id["dual_involution"].applicable == 23
        # rank-zero matroids are skipped by hypothesis-carrying checks
        rank_positive = sum(1 for m in population(3) if m.rank > 0)
        assert by_id["thm_50"].applicable == rank_positive
        # rank-one restriction
        rank_one = sum(1 for m in population(3) if m.rank == 1)
        assert by_id["lemma_66"].applicable == rank_one

    def test_order_insensitive(self):
        pop = population(3)
        a = verify(pop).to_dict()
        b = verify(list(reversed(pop))).to_dict()
        for row_a, row_b in zip(a["checks"], b["checks"]):
            assert row_a["applicable"] == row_b["applicable"]
            assert row_a["passed"] == row_b["passed"]
            assert row_a["failed"] == row_b["failed"]

    def test_deterministic_across_runs_and_workers(self):
        pop = population(3)
        ref = verify(pop).to_dict()
        again = verify(pop).to_dict()
        threaded = verify(pop, workers=4).to_dict()
        for other in (again, threaded):
            ref_wo = dict(ref, duration_ms=None)
            other_wo = dict(other, duration_ms=None)
            assert ref_wo == other_wo

    def test_check_filter(self):
        registry = [lookup_check("prop_100"), lookup_check("dual_involution")]
        report = verify(population(2), registry)
        assert [o.check_id for o in report.outcomes] == ["prop_100", "dual_involution"]

    def test_failing_check_produces_replayable_witness(self):
        # registry checks never fail on valid populations, so install a rigged
        # check to exercise the failure plumbing
        rigged = TheoremCheck(
            "rigged", "every matroid has three bases",
            lambda m: True,
            lambda m: None if len(m.bases) == 3 else f"{len(m.bases)} bases",
        )
        report = verify(population(2), [rigged])
        assert report.failures > 0
        outcome = report.outcomes[0]
        assert outcome.applicable == outcome.passed + outcome.failed
        for witness in outcome.witnesses:
            replayed = Matroid.from_doc(witness["matroid"])
            assert rigged.run(replayed) == witness["detail"]

    def test_checker_returning_false_counts_as_failure(self):
        # a falsy detail is still a failure, not a sign the check was skipped
        rigged = TheoremCheck(
            "rigged_false", "returns False on its only matroid",
            lambda m: True, lambda m: False,
        )
        report = verify(population(1)[:1], [rigged])
        outcome = report.outcomes[0]
        assert (outcome.applicable, outcome.passed, outcome.failed) == (1, 0, 1)

    def test_search_cap_is_tallied_not_raised(self):
        # U(3,7) has 35 bases, above the minimality search cap of 20
        g = GroundSet("1234567")
        u37 = Matroid.from_bases(
            g, SetFamily(g, [g.subset_of(c) for c in combinations(range(7), 3)])
        )
        report = verify([u37, *population(2)])
        assert report.failures == 0
        assert report.capped > 0
        for outcome in report.outcomes:
            assert outcome.applicable == outcome.passed + outcome.failed + outcome.capped
            hits = [hit["matroid"] for hit in outcome.cap_hits]
            assert hits == [u37.to_doc()] * outcome.capped
        thm_334 = lookup_check("thm_334")
        row = next(r for r in report.to_dict()["checks"] if r["id"] == "thm_334")
        assert (row["applicable"], row["passed"], row["capped"]) == (8, 7, 1)
        assert "exceed" in row["cap_hits"][0]["detail"]
        assert Matroid.from_doc(row["cap_hits"][0]["matroid"]) == u37
        with pytest.raises(SearchCapExceeded):
            thm_334.run(u37)
        text = report.to_text()
        assert "capped:" in text
        assert f"{report.capped} capped" in text

    def test_missing_recovered_partition_fails_the_matroid(self, monkeypatch):
        # the one-per-block checks rely on the partition that unique expansion
        # implies; when it is absent they fail on that matroid and the sweep
        # goes on
        monkeypatch.setattr(harness, "recover_partition", lambda m: None)
        report = verify(population(3))
        assert report.total == 23
        by_id = {o.check_id: o for o in report.outcomes}
        for check_id in (
            "prop_302_304", "prop_303", "prop_305_306", "prop_339", "cor_336",
            "thm_321",
        ):
            outcome = by_id[check_id]
            assert outcome.applicable > 0
            assert outcome.failed == outcome.applicable
            assert outcome.witnesses[0]["detail"] == (
                "the forming family does not partition the base support"
            )
        assert by_id["prop_100"].failed == 0

    def test_prop_302_304_catches_broken_cap_one_picks(self, monkeypatch):
        # drop the last one-element pick of every block with several elements:
        # the capped constructor loses bases, the one-per-block one does not
        real = matroid_module.combinations

        def lossy(items, k):
            picks = list(real(items, k))
            return picks[:-1] if k == 1 and len(picks) > 1 else picks

        monkeypatch.setattr(matroid_module, "combinations", lossy)
        report = verify(population(4), [lookup_check("prop_302_304")])
        outcome = report.outcomes[0]
        assert outcome.applicable == 70
        assert outcome.failed > 0
        assert outcome.witnesses[0]["detail"] == (
            "one-per-block and cap-1 constructions disagree"
        )

    def test_invalid_family_never_reaches_verification(self):
        g = GroundSet("123")
        with pytest.raises(UnequalCardinality):
            Matroid.from_bases(
                g, SetFamily(g, [g.subset("1", "2"), g.subset("3")])
            )

    def test_report_json_schema(self):
        report = verify(population(2))
        doc = json.loads(report.to_json())
        assert set(doc) == {"population", "checks", "duration_ms"}
        assert set(doc["population"]) == {"total", "by_size", "by_rank"}
        assert doc["population"]["total"] == 7
        assert doc["population"]["by_size"] == {"1": 2, "2": 5}
        for row in doc["checks"]:
            assert set(row) == {
                "id", "paper_ref", "applicable", "passed", "failed", "witnesses",
                "capped", "cap_hits",
            }

    def test_text_report_mentions_every_check(self):
        text = verify(population(2)).to_text()
        for check in theorem_registry():
            assert check.check_id in text
        assert "PASS" in text


class TestWorkedExamples:
    def test_all_facts_hold(self):
        rows = check_examples()
        failed = [(e, f) for e, f, ok in rows if not ok]
        assert failed == []

    def test_catalog_covers_the_expected_examples(self):
        names = [e.name for e in worked_examples()]
        assert names == [
            "example_300", "example_47", "example_48", "example_73",
            "example_119", "example_121", "example_333", "example_338",
            "prop_42_union", "prop_42_intersection",
        ]

    def test_examples_pass_the_full_registry(self):
        report = verify(worked_examples())
        assert report.failures == 0
        assert report.total == sum(len(e.matroids) for e in worked_examples())

    def test_facts_are_nonempty_everywhere(self):
        for example in worked_examples():
            assert example.matroids
            assert example.facts
