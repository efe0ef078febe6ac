import gc
import json
from itertools import chain, combinations

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
from matroidlab import classify as classify_module
from matroidlab import forming as forming_module
from matroidlab import forming_family, harness, recover_partition
from matroidlab import matroid as matroid_module
from matroidlab.errors import AxiomError, SearchCapExceeded, UnequalCardinality
from matroidlab.setalgebra import _one_per_block, _partition_masks

from oracles import (
    lemma_e_oracle,
    mixed_size_families,
    prop_103_oracle,
    prop_124_oracle,
    prop_341_oracle,
    thm_123_oracle,
    thm_33_oracle,
)


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

    def test_deterministic_across_runs_and_inputs(self):
        # a list, a repeat run on it and a one-shot generator agree
        pop = population(3)
        ref = verify(pop).to_dict()
        again = verify(pop).to_dict()
        streamed = verify(m for m in pop).to_dict()
        assert (
            dict(ref, duration_ms=None)
            == dict(again, duration_ms=None)
            == dict(streamed, duration_ms=None)
        )

    def test_streamed_population_is_not_kept(self):
        # verify draws the population once and lets each matroid go after its
        # checks: besides the one being drawn, at most the last one is alive
        alive = []

        def live_matroids():
            gc.collect()
            return sum(isinstance(o, Matroid) for o in gc.get_objects())

        def stream():
            for i, m in enumerate(
                chain.from_iterable(enumerate_matroids(n) for n in range(1, 6))
            ):
                if i % 50 == 0:
                    alive.append(live_matroids() - before)
                yield m

        before = live_matroids()
        report = verify(stream())
        assert (report.total, report.failures) == (497, 0)
        assert len(alive) == 10
        assert max(alive) <= 2

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

    def test_thm_552_is_tested_by_the_search(self, monkeypatch):
        # is_union_minimal answers a unique expansion matroid by thm_552
        # itself, so the registry must run the search on every applicable
        # matroid, one-base ones included, and the worked examples likewise
        calls = []
        search = classify_module._least_reduction

        def counted(m, kind, boundary):
            calls.append(kind)
            return search(m, kind, boundary)

        monkeypatch.setattr(classify_module, "_least_reduction", counted)
        check = lookup_check("thm_552")
        report = verify(population(4), [check])
        outcome = report.outcomes[0]
        assert outcome.passed == outcome.applicable > 0
        assert calls == ["union"] * outcome.applicable
        calls.clear()
        assert all(ok for _, _, ok in check_examples())
        # reducible, irreducible and both_union_minimal (two matroids)
        assert calls.count("union") == 4

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


def _trusted_family(rows):
    # not a matroid: drives the failure branches the registry never reaches
    g = GroundSet("1234")
    return Matroid._trusted(g, SetFamily(g, [g.subset(*r) for r in rows]))


def _equal_size_families(n, ranks):
    """Every nonempty family of r-subsets of {1..n} for r in `ranks`, built
    unvalidated, so matroids and non-matroids alike."""
    g = GroundSet(str(i) for i in range(1, n + 1))
    for r in ranks:
        rsets = [g.subset_of(c) for c in combinations(range(n), r)]
        for k in range(1, len(rsets) + 1):
            for combo in combinations(rsets, k):
                yield Matroid._trusted(g, SetFamily(g, combo))


def _is_matroid(m):
    try:
        Matroid.from_bases(m.ground, m.bases)
    except AxiomError:
        return False
    return True


class TestNonMatroidFamilies:
    """The registry cross-checks unvalidated families too: a family that is
    not a matroid fails checks, it never aborts the sweep."""

    def test_every_equal_size_family_on_four_elements_is_reported(self):
        families = list(_equal_size_families(4, range(1, 4)))
        assert len(families) == 93
        bad = [m.to_doc() for m in families if not _is_matroid(m)]
        assert len(bad) == 27
        report = verify(families)
        assert report.total == 93
        by_id = {o.check_id: o for o in report.outcomes}
        for outcome in report.outcomes:
            assert outcome.applicable == outcome.passed + outcome.failed
            # every failure belongs to a non-matroid: the 66 matroids pass
            assert all(w["matroid"] in bad for w in outcome.witnesses)
        for check_id in ("thm_123", "dual_involution"):
            assert [w["matroid"] for w in by_id[check_id].witnesses] == bad
        # the dual of a non-matroid fails validation; the error is the detail
        assert all(
            w["detail"].startswith("no y in ")
            for w in by_id["dual_involution"].witnesses
        )

    def test_mixed_size_families_run_the_whole_registry(self):
        # families whose members differ in size, such as {{}, {1}}, reach the
        # minimality searches too; every outcome is a tally, never an error
        report = verify(mixed_size_families())
        assert report.total == 2242
        by_id = {o.check_id: o for o in report.outcomes}
        for outcome in report.outcomes:
            assert outcome.applicable == outcome.passed + outcome.failed + outcome.capped
        for check_id, tally in (("thm_334", (2242, 206, 2036)),
                                ("thm_552", (1603, 1290, 313))):
            outcome = by_id[check_id]
            assert (outcome.applicable, outcome.passed, outcome.failed) == tally


class TestThm123AgainstOracle:
    """`thm_123` runs the base exchange scan on the complement family; the
    oracle scans `Subset` values as the statement reads."""

    def test_same_text_on_four_elements(self):
        check = lookup_check("thm_123")
        for m in _equal_size_families(4, range(1, 4)):
            assert check.run(m) == thm_123_oracle(m)

    def test_same_verdict_on_five_elements(self):
        # the two scans visit base pairs in different orders, so on some
        # non-matroids they name different violations; verdicts must agree
        check = lookup_check("thm_123")
        passed = 0
        families = list(_equal_size_families(5, range(1, 5)))
        assert len(families) == 2108
        for m in families:
            verdict = check.run(m) is None
            assert verdict == (thm_123_oracle(m) is None)
            passed += verdict
        assert passed == 404

    def test_failure_text_is_pinned(self):
        detail = lookup_check("thm_123").run(_trusted_family(["13", "24"]))
        assert detail == "no y in {2,4}-{1,3} with ({2,4}-{y})+{1} a base"


class TestFormingChecksAgainstOracles:
    """`prop_341`, `prop_124` and `lemma_e` read the base-relative block masks;
    the oracles build each base's forming family as a `SetFamily` and must
    give the same text."""

    CASES = [
        ("prop_341", prop_341_oracle),
        ("prop_124", prop_124_oracle),
        ("lemma_e", lemma_e_oracle),
    ]
    # lemma_e cannot fail: the block of each base element holds that element
    # and no other element of the base
    EQUAL_SIZE_FAILURES = {"prop_341": 0, "prop_124": 27, "lemma_e": 0}
    MIXED_FAILURES = {"prop_341": 1672, "prop_124": 1845, "lemma_e": 0}

    @staticmethod
    def _failures(check_id, oracle, families):
        check = lookup_check(check_id)
        failed = 0
        for m in families:
            if check.applies(m):
                detail = check.run(m)
                assert detail == oracle(m)
                failed += detail is not None
        return failed

    @pytest.mark.parametrize("check_id,oracle", CASES)
    def test_every_matroid_up_to_five(self, check_id, oracle):
        assert self._failures(check_id, oracle, population(5)) == 0

    @pytest.mark.parametrize("check_id,oracle", CASES)
    def test_equal_size_families_on_four_elements(self, check_id, oracle):
        # the 27 non-matroids among them are the ones prop_124 fails
        families = list(_equal_size_families(4, range(1, 4)))
        assert len(families) == 93
        failed = self._failures(check_id, oracle, families)
        assert failed == self.EQUAL_SIZE_FAILURES[check_id]

    @pytest.mark.parametrize("check_id,oracle", CASES)
    def test_mixed_size_families(self, check_id, oracle):
        failed = self._failures(check_id, oracle, mixed_size_families())
        assert failed == self.MIXED_FAILURES[check_id]


class TestPartitionChecksAgainstOracles:
    """`thm_33` and `prop_103` walk block masks; the oracles walk `Partition`
    values through the public set algebra and must give the same text."""

    CASES = [("thm_33", thm_33_oracle), ("prop_103", prop_103_oracle)]

    @pytest.mark.parametrize("check_id,oracle", CASES)
    def test_every_matroid_up_to_five(self, check_id, oracle):
        check = lookup_check(check_id)
        for m in population(5):
            if check.applies(m):
                assert check.run(m) == oracle(m)

    @pytest.mark.parametrize("check_id,oracle", CASES)
    @pytest.mark.parametrize("rows", [["13", "14", "23"], ["13", "24"]])
    def test_failure_branches(self, check_id, oracle, rows):
        m = _trusted_family(rows)
        detail = lookup_check(check_id).run(m)
        assert detail is not None
        assert detail == oracle(m)

    @pytest.mark.parametrize("source", ["matroids_up_to_six", "mixed_size_families"])
    def test_bounded_walk_keeps_every_hit_in_order(self, source):
        # the walk bounded by rank and base-mates finds the same one-per-block
        # partitions, in the same order, as filtering the unbounded walk
        pop = population(6) if source == "matroids_up_to_six" else mixed_size_families()
        for m in pop:
            bases = m.bases.masks()
            assert harness._one_per_block_partitions(m) == [
                blocks for blocks in _partition_masks(m.support().mask)
                if _one_per_block(bases, blocks)
            ]

    def test_partitions_are_not_memoized(self, monkeypatch):
        # thm_33 and prop_103 each walk on their own; no memo fact holds them
        names = []
        real = Matroid._fact

        def spy(self, name, compute):
            names.append(name)
            return real(self, name, compute)

        monkeypatch.setattr(Matroid, "_fact", spy)
        registry = [lookup_check("thm_33"), lookup_check("prop_103")]
        assert verify(population(4), registry).failures == 0
        assert "one_per_block_partitions" not in names

    def test_two_hits_are_listed(self):
        detail = lookup_check("prop_103").run(_trusted_family(["13", "24"]))
        assert detail == (
            "recovered {{1},{2},{3},{4}} but one-per-block partitions are "
            "[{{1,2},{3,4}}, {{1,4},{2,3}}]"
        )


class TestFactsMemo:
    """Each matroid's forming facts are computed once and reused by every
    check; the report must not depend on whether they were already there."""

    @staticmethod
    def _report(pop):
        doc = verify(pop).to_dict()
        doc.pop("duration_ms")
        return doc

    def test_cold_warm_and_rebuilt_reports_agree(self):
        pop = population(4) + list(enumerate_matroids(5))[::5]
        cold = self._report(pop)
        warm = self._report(pop)
        rebuilt = self._report([Matroid.from_doc(m.to_doc()) for m in pop])
        assert cold == warm == rebuilt

    def test_expansion_map_is_built_once_per_matroid(self, monkeypatch):
        calls = []
        real = forming_module.expansion_masks

        def counted(base_masks):
            calls.append(1)
            return real(base_masks)

        monkeypatch.setattr(forming_module, "expansion_masks", counted)
        pop = [m for m in enumerate_matroids(4) if m.rank > 0]
        # thm_321 takes the forming family of a matroid it builds itself
        registry = [c for c in theorem_registry() if c.check_id != "thm_321"]
        assert verify(pop, registry).failures == 0
        # thm_120 classifies each matroid's dual, a new value whose memo
        # `from_bases` seeds with the map its validation built, so the 50
        # positive-rank duals build none here; a rank-zero dual builds a
        # throwaway map outside the memo
        thm_120 = lookup_check("thm_120")
        duals = [m for m in pop if thm_120.applies(m) and m.rank < m.ground.size]
        assert (len(pop), len(duals)) == (67, 50)
        assert len(calls) == len(pop)

    def test_missing_partition_is_computed_once(self, monkeypatch):
        calls = []
        real = classify_module.is_partition

        def counted(family, support):
            calls.append(1)
            return real(family, support)

        monkeypatch.setattr(classify_module, "is_partition", counted)
        g = GroundSet("123")
        uniform = Matroid.from_bases(
            g, SetFamily(g, [g.subset(*b) for b in ("12", "13", "23")])
        )
        assert recover_partition(uniform) is None
        assert recover_partition(uniform) is None
        assert len(calls) == 1

    def test_dual_never_shares_cached_facts(self):
        for i, m in enumerate(population(4)):
            if m.rank in (0, m.ground.size):
                continue  # one side has rank zero and no forming family
            dual = m.dual()
            # warm either side first: neither may see the other's facts
            pair = (m, dual) if i % 2 else (dual, m)
            facts = {id(x): (forming_family(x), recover_partition(x)) for x in pair}
            for x in pair:
                fam, part = facts[id(x)]
                fresh = Matroid.from_doc(x.to_doc())
                assert fam == forming_family(fresh)
                assert part == recover_partition(fresh)
                assert forming_family(x) is fam
                assert recover_partition(x) is part
            (fam_m, part_m), (fam_d, part_d) = facts[id(m)], facts[id(dual)]
            assert fam_m is not fam_d
            assert part_m is None or part_m is not part_d


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
        matroids = [m for e in worked_examples() for m in e.matroids]
        report = verify(matroids)
        assert report.failures == 0
        assert report.total == len(matroids)

    def test_facts_are_nonempty_everywhere(self):
        for example in worked_examples():
            assert example.matroids
            assert example.facts
