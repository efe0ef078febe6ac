import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import traceback
import weakref
from functools import partial
from itertools import chain, combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    Matroid,
    SetFamily,
    Subset,
    TheoremCheck,
    check_examples,
    enumerate_matroids,
    enumeration_ground,
    is_union_minimal,
    is_unique_expansion,
    lookup_check,
    make_partition_matroid,
    theorem_registry,
    verify,
)
from matroidlab import classify as classify_module
from matroidlab import forming as forming_module
from matroidlab import expansion, forming_family, harness, recover_partition
from matroidlab import matroid as matroid_module
from matroidlab.enumeration import _families
from matroidlab.errors import AxiomError, SearchCapExceeded, UnequalCardinality
from matroidlab.setalgebra import (
    _disjoint_union,
    _partition_masks,
    _transversal_masks,
    one_per_block,
)

from large_grounds import large_ground_matroids, rank_one_uniform
from oracles import (
    definitional_scan_oracle,
    expansion_oracle,
    lemma_e_oracle,
    mixed_size_families,
    prop_103_oracle,
    prop_124_oracle,
    prop_341_oracle,
    subset_of,
    thm_123_oracle,
    thm_334_oracle,
    thm_33_oracle,
)
from report_digest import PINNED, report_digest


class _DrawnMatroid(Matroid):
    """A matroid drawn from a test stream, as distinct from the matroids the
    checks build from it; weakly referable, so a test can count the live ones."""

    __slots__ = ("__weakref__",)


def population(max_n):
    return [m for n in range(1, max_n + 1) for m in enumerate_matroids(n)]


def _lossy_cap_one_picks(monkeypatch):
    # drop the last one-element pick of every block with several elements:
    # the capped constructor loses bases, the one-per-block one does not
    real = matroid_module.combinations

    def lossy(items, k):
        picks = list(real(items, k))
        return picks[:-1] if k == 1 and len(picks) > 1 else picks

    monkeypatch.setattr(matroid_module, "combinations", lossy)


def _one_block_forming_family(monkeypatch):
    # right at rank one only: above it the support is not one block
    monkeypatch.setattr(
        harness, "forming_family", lambda m: SetFamily(m.ground, [m.support()])
    )


def _one_per_block_matroid_missing_its_last_base(monkeypatch):
    # built unvalidated, as the dropped base may leave a non-matroid
    real = harness.make_unique_partition_matroid

    def dropped(ground, p):
        upm = real(ground, p)
        if len(upm.bases) == 1:
            return upm
        return Matroid._trusted(ground, SetFamily(ground, list(upm.bases)[:-1]))

    monkeypatch.setattr(harness, "make_unique_partition_matroid", dropped)


def _forming_blocks_missing_the_last(monkeypatch):
    # drop the block of each base's last element: that element then lies in
    # no block, so no base-relative forming family is whole
    real = harness._forming_blocks

    def dropped(m):
        return ((b, blocks[:-1]) for b, blocks in real(m))

    monkeypatch.setattr(harness, "_forming_blocks", dropped)


def _forming_blocks_repeating_the_first(monkeypatch):
    # list the block of each base's first element twice: that element then
    # lies in two blocks, a failure no real family reaches
    real = harness._forming_blocks

    def repeated(m):
        return ((b, blocks[:1] + blocks) for b, blocks in real(m))

    monkeypatch.setattr(harness, "_forming_blocks", repeated)


def _forming_blocks_first_for_last(monkeypatch):
    # list the block of each base's first element in place of its last: as
    # many blocks as before, one of them twice (rank one is unchanged)
    real = harness._forming_blocks

    def swapped(m):
        return ((b, blocks[:-1] + blocks[:1]) for b, blocks in real(m))

    monkeypatch.setattr(harness, "_forming_blocks", swapped)


def _flag_missing_an_element(monkeypatch):
    # drop the lowest element of the first block with several elements
    real = classify_module._flag_blocks

    def dropped(m):
        blocks = real(m)
        for i, k in enumerate(blocks):
            if k & (k - 1):
                blocks[i] = k & (k - 1)
                break
        return blocks

    monkeypatch.setattr(classify_module, "_flag_blocks", dropped)


def _expansion_of_missing_its_lowest_bit(monkeypatch):
    # drop the lowest element of every expansion with several elements, in
    # every module that reads the one closure pass
    real = matroid_module._expansion_of

    def dropped(base_masks, x):
        grow = real(base_masks, x)
        return grow & (grow - 1) or grow

    for module in (matroid_module, forming_module, classify_module):
        monkeypatch.setattr(module, "_expansion_of", dropped)


def _dual_missing_its_last_base(monkeypatch):
    # built unvalidated, as the dropped base may leave a non-matroid
    real = Matroid.dual

    def dropped(m):
        d = real(m)
        if len(d.bases) == 1:
            return d
        return Matroid._trusted(d.ground, SetFamily(d.ground, list(d.bases)[:-1]))

    monkeypatch.setattr(Matroid, "dual", dropped)


def _walk_kind(m, covers):
    """Which search called the minimality walk: the union search walks the
    base masks themselves, the intersection search their complements."""
    return "union" if tuple(covers) == m.bases._order else "intersection"


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

    def test_each_call_returns_a_new_list(self):
        # the checks are built once, but every caller gets its own list
        first, second = theorem_registry(), theorem_registry()
        assert first == second
        assert first is not second
        pop = population(2)
        before = verify(pop).to_dict()
        first.clear()
        second.reverse()
        after = verify(pop).to_dict()
        before.pop("duration_ms")
        after.pop("duration_ms")
        assert after == before
        assert len(before["checks"]) == 28
        assert theorem_registry() == second[::-1]

    def test_checks_are_immutable(self):
        # every call shares the registry's checks, so no caller may change one
        check = lookup_check("thm_334")
        for name in ("check_id", "statement", "applies", "run"):
            with pytest.raises(AttributeError):
                setattr(check, name, None)
        assert lookup_check("thm_334") is check
        assert check.check_id == "thm_334"

    def test_outcomes_start_empty_and_apart(self):
        first, second = harness.CheckOutcome("a", "s"), harness.CheckOutcome("b", "t")
        first.witnesses.append({})
        first.cap_hits.append({})
        assert second.to_dict() == {
            "id": "b", "paper_ref": "t", "applicable": 0, "passed": 0,
            "failed": 0, "witnesses": [], "capped": 0, "cap_hits": [],
        }
        # the counters and lists are the sweep's to fill, not the caller's
        with pytest.raises(TypeError):
            harness.CheckOutcome("a", "s", applicable=1)

    def test_expected_ids_present(self):
        # the checkers register in definition order, so this list is also the
        # order of harness.py and of every report: moving a checker fails here
        ids = [c.check_id for c in theorem_registry()]
        assert ids == [
            "prop_100", "thm_123", "prop_341", "cor_423", "prop_46", "prop_124",
            "lemma_e", "lemma_66", "thm_50", "prop_h", "thm_126", "prop_51_j",
            "prop_125", "prop_302_304", "prop_303", "prop_305_306", "prop_339",
            "cor_336", "thm_321", "thm_52", "thm_33", "cor_109", "prop_103",
            "thm_334", "thm_552", "prop_118", "thm_120", "dual_involution",
        ]


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

    def test_report_up_to_six_hashes_to_its_pin(self):
        # the report that `verify --n 6 --json` prints, in process: tier-1
        # checks the digest that the CI step checks after it
        report = verify(chain.from_iterable(enumerate_matroids(n) for n in range(1, 7)))
        assert report.total == 4304
        assert report_digest(report.to_dict()) == PINNED[4304]

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

    @staticmethod
    def _drawn_alive(
        keep: bool = False, collect: bool = True, cycle: bool = False
    ) -> list[int]:
        # the number of matroids drawn from the stream that are still alive,
        # sampled at every 50th draw; each drawn matroid goes into a weak set,
        # so the values its checks build and keep in its memo (its
        # one-per-block matroid, its dual) are not counted, and counting walks
        # no heap.  Without `collect` the cyclic collector is off for the
        # whole run, so only reference counts free a drawn matroid; with
        # `cycle` each one holds itself in its memo
        alive, kept, drawn_set = [], [], weakref.WeakSet()

        def stream():
            for i, m in enumerate(
                chain.from_iterable(enumerate_matroids(n) for n in range(1, 6))
            ):
                if i % 50 == 0:
                    if collect:
                        gc.collect()
                    alive.append(len(drawn_set))
                drawn = _DrawnMatroid._trusted(m.ground, m.bases)
                drawn_set.add(drawn)
                if keep:
                    kept.append(drawn)
                if cycle:
                    drawn._facts = {"self": drawn}
                yield drawn

        enabled = gc.isenabled()
        if not collect:
            gc.disable()
        try:
            report = verify(stream())
        finally:
            if enabled:
                gc.enable()
        assert (report.total, report.failures) == (497, 0)
        assert len(alive) == 10
        return alive

    def test_streamed_population_is_not_kept(self):
        # verify draws the population once and lets each matroid go after its
        # checks: besides the one being drawn, at most the last one is alive
        assert max(self._drawn_alive(keep=False)) <= 2

    def test_kept_population_breaks_the_bound(self):
        # negative control: a stream that keeps every matroid it draws must
        # show up in the count the test above bounds
        assert max(self._drawn_alive(keep=True)) > 2

    def test_streamed_population_needs_no_collector(self):
        # reference counts alone free each matroid after its checks, so no
        # value kept in its memo (its dual, say) points back at it
        assert max(self._drawn_alive(collect=False)) <= 2

    def test_self_referencing_population_breaks_the_bound(self):
        # negative control: a matroid held in its own memo is a reference
        # cycle, which without the collector outlives its checks
        assert max(self._drawn_alive(collect=False, cycle=True)) > 2

    def test_check_filter(self):
        registry = [lookup_check("prop_100"), lookup_check("dual_involution")]
        report = verify(population(2), registry)
        assert [o.check_id for o in report.outcomes] == ["prop_100", "dual_involution"]

    def test_seeded_sample_on_seven_elements_passes(self):
        # CI runs the whole n=7 population; here a seeded sample of its
        # families, each validated afresh, passes every check uncapped
        families = [fam for by_rank in _families(7) for fam in by_rank]
        picks = sorted(random.Random(2707).sample(range(len(families)), 1000))
        g = enumeration_ground(7)
        report = verify(
            Matroid.from_bases(g, SetFamily.from_masks(g, families[i])) for i in picks
        )
        assert (report.total, report.failures, report.capped) == (1000, 0, 0)
        by_id = {o.check_id: o for o in report.outcomes}
        assert by_id["prop_303"].applicable > 0

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

    def test_each_distinct_predicate_is_asked_once_per_matroid(self):
        # prop_341 and lemma_e share one counting predicate, lemma_66 has its
        # own; wrapping each check's predicate apart must give the same report
        calls = {"shared": 0, "own": 0}

        def shared(m):
            calls["shared"] += 1
            return m.rank > 0

        def own(m):
            calls["own"] += 1
            return m.rank == 1

        registry = [
            TheoremCheck(c.check_id, c.statement, applies, c.run)
            for c, applies in (
                (lookup_check("prop_341"), shared),
                (lookup_check("lemma_e"), shared),
                (lookup_check("lemma_66"), own),
            )
        ]
        pop = population(4)
        assert len(pop) == 91
        shared_report = verify(pop, registry).to_dict()
        assert calls == {"shared": 91, "own": 91}
        apart = [
            TheoremCheck(c.check_id, c.statement, partial(lambda p, m: p(m), c.applies), c.run)
            for c in registry
        ]
        apart_report = verify(pop, apart).to_dict()
        assert calls == {"shared": 91 + 2 * 91, "own": 91 + 91}
        del shared_report["duration_ms"], apart_report["duration_ms"]
        assert shared_report == apart_report
        assert [o["applicable"] for o in shared_report["checks"]] == [87, 87, 26]

    def test_search_cap_is_tallied_not_raised(self):
        # the one-per-block matroid on blocks of three, three and three is
        # unique expansion with 27 bases, above the minimality search cap of
        # 20, so both thm_334 and thm_552 run the search and trip the cap
        g = GroundSet("123456789")
        opb = Matroid.from_bases(g, SetFamily(g, [
            g.subset(*picks) for picks in product("123", "456", "789")
        ]))
        report = verify([opb, *population(2)])
        assert report.failures == 0
        assert report.capped > 0
        for outcome in report.outcomes:
            assert outcome.applicable == outcome.passed + outcome.failed + outcome.capped
            hits = [hit["matroid"] for hit in outcome.cap_hits]
            assert hits == [opb.to_doc()] * outcome.capped
        thm_334 = lookup_check("thm_334")
        row = next(r for r in report.to_dict()["checks"] if r["id"] == "thm_334")
        assert (row["applicable"], row["passed"], row["capped"]) == (8, 7, 1)
        assert "exceed" in row["cap_hits"][0]["detail"]
        assert Matroid.from_doc(row["cap_hits"][0]["matroid"]) == opb
        with pytest.raises(SearchCapExceeded):
            thm_334.run(opb)
        text = report.to_text()
        assert "capped:" in text
        assert f"{report.capped} capped" in text

    def test_thm_334_decides_past_the_cap_without_searching(self, monkeypatch):
        # U(3,7) (35 bases) and U(2,7) (21 bases) are not unique expansion:
        # their flag transversals are a proper witness on both sides, so the
        # check passes with no search and no cap hit
        def refused(m, covers):
            raise AssertionError("the exhaustive search ran")

        monkeypatch.setattr(classify_module, "_least_reduction", refused)
        g = GroundSet("1234567")
        uniforms = [
            Matroid.from_bases(g, SetFamily(g, [g.subset(*c) for c in combinations(g.labels, r)]))
            for r in (3, 2)
        ]
        assert [len(m.bases) for m in uniforms] == [35, 21]
        outcome = verify(uniforms, [lookup_check("thm_334")]).outcomes[0]
        assert (outcome.applicable, outcome.passed, outcome.capped) == (2, 2, 0)

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
        _lossy_cap_one_picks(monkeypatch)
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

        def counted(m, covers):
            calls.append(_walk_kind(m, covers))
            return search(m, covers)

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
        rsets = [subset_of(g, c) for c in combinations(range(n), r)]
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
    """`thm_123` reads the dual's base exchange check on the complement
    family; the oracle scans `Subset` values as the statement reads."""

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


class TestThm123ReadsTheDual:
    """`thm_123` is base exchange on the complement family, which `dual()`
    builds and validates once per matroid: the check builds no complement
    family, expansion map or exchange pass of its own."""

    def test_full_registry_builds_each_complement_family_once(self, monkeypatch):
        counts = {"complements": 0, "expansion_masks": 0}
        real_complements = matroid_module.complements
        real_expansion_masks = matroid_module.expansion_masks

        def complements(family):
            counts["complements"] += 1
            return real_complements(family)

        def expansion_masks(base_masks):
            counts["expansion_masks"] += 1
            return real_expansion_masks(base_masks)

        # fresh copies, so no memo holds a dual or a map from an earlier test
        pop = [Matroid._trusted(m.ground, m.bases) for m in population(5)]
        # a `complements` bound in the harness would be counted as well
        for module in (matroid_module, harness):
            monkeypatch.setattr(module, "complements", complements, raising=False)
        monkeypatch.setattr(matroid_module, "expansion_masks", expansion_masks)
        assert verify(pop).failures == 0
        # one dual per matroid, plus prop_339's dual of the one-per-block
        # matroid of each of the 272 unique expansion matroids; thm_334 runs
        # no exchange pass (its two passes built 440 maps: two on each of the
        # 497 - 272 - 5 = 220 matroids of positive rank, not unique expansion)
        unique = [m for m in pop if m.rank > 0 and is_unique_expansion(m).verdict]
        assert (len(pop), len(unique)) == (497, 272)
        assert counts == {"complements": 497 + 272, "expansion_masks": 2020}

    def test_a_failed_dual_is_kept_nowhere(self):
        # a family that is not a matroid keeps no dual and no error: every
        # tally and detail is unchanged, and the dual's build raises again
        families = [Matroid._trusted(m.ground, m.bases) for m in mixed_size_families()]
        report = verify(families).to_dict()
        del report["duration_ms"]
        assert len(families) == 2242
        assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == (
            "03ce96f1d11a96be59f7e961ac2003aab8b254b25290f3d50371baf9d4d47ee1"
        )
        failed = 0
        for m in families:
            try:
                m.dual()
            except AxiomError:
                assert "dual" not in m._facts
                failed += 1
        assert failed == 2036

    def test_a_failed_dual_raises_afresh_on_every_call(self):
        # each call builds again and raises a new error with the same message,
        # whose traceback does not grow with each raise
        m = _trusted_family(["1", "12"])
        raised = []
        for _ in range(3):
            with pytest.raises(UnequalCardinality) as info:
                m.dual()
            raised.append((str(info.value), len(traceback.extract_tb(info.value.__traceback__))))
        assert raised[0] == raised[1] == raised[2]
        assert "dual" not in m._facts

    def test_fails_exactly_where_the_dual_raises(self):
        # members of different sizes fail the dual's size check first, and
        # its message is the detail
        families = mixed_size_families()
        outcome = verify(families, [lookup_check("thm_123")]).outcomes[0]
        raised = []
        for m in families:
            try:
                Matroid._trusted(m.ground, m.bases).dual()
            except AxiomError as exc:
                raised.append((m, exc))
        assert [w["matroid"] for w in outcome.witnesses] == [m.to_doc() for m, _ in raised]
        unequal = 0
        for w, (m, exc) in zip(outcome.witnesses, raised):
            if len({len(b) for b in m.bases}) > 1:
                assert isinstance(exc, UnequalCardinality)
                assert w["detail"] == str(exc)
                unequal += 1
            else:
                assert w["detail"].startswith("no y in ")
        assert (outcome.applicable, outcome.failed, unequal) == (2242, 2036, 1799)


class TestThm334:
    """`thm_334` checks the flag transversals as a witness on both sides and
    searches only when they are all the bases; the oracle runs both
    exhaustive searches on every matroid."""

    def test_same_outcome_as_the_two_searches(self):
        # a family that is not a matroid fails at its dual on both sides;
        # the oracle gets a fresh copy, so neither reads the other's searches
        def outcome(run, m):
            try:
                return run(m)
            except AxiomError as exc:
                return type(exc), str(exc)

        check = lookup_check("thm_334")
        families = [*population(6), *mixed_size_families()]
        assert len(families) == 4304 + 2242
        for m in families:
            fresh = Matroid._trusted(m.ground, m.bases)
            assert outcome(check.run, m) == outcome(thm_334_oracle, fresh)

    @staticmethod
    def _flag_breaches(families):
        """The families whose flag blocks do not partition the support, and
        the count of those whose transversal count passes."""
        breaches, passing = [], 0
        for m in families:
            blocks, kept = classify_module._flag_transversals(m)
            if _disjoint_union(blocks) != m.support().mask:
                breaches.append(m)
            elif len(kept) == prod(k.bit_count() for k in blocks):
                passing += 1
                assert sorted(kept) == sorted(_transversal_masks(blocks)), m
        return breaches, passing

    def test_a_passing_count_keeps_the_whole_transversal_product(self):
        # the proof behind the check's missing exchange passes: the blocks
        # partition the support of any family, so a passing count keeps every
        # transversal, whose family and complements are exchange closed
        families = [
            *population(6), *mixed_size_families(), *_equal_size_families(4, range(1, 4))
        ]
        assert len(families) == 4304 + 2242 + 93
        assert self._flag_breaches(families) == ([], 5239)

    def test_flag_mutant_breaks_the_partition(self, monkeypatch):
        # the 61 matroids whose blocks lose an element are the 61 that the
        # mutant fails in the check, at its cover branch
        _flag_missing_an_element(monkeypatch)
        pop = population(4)
        breaches, _ = self._flag_breaches(pop)
        outcome = verify(pop, [lookup_check("thm_334")]).outcomes[0]
        assert len(breaches) == 61
        assert [m.to_doc() for m in breaches] == [w["matroid"] for w in outcome.witnesses]

    MUTANTS = [
        (
            _flag_missing_an_element, 61,
            {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "flag transversals {{2}} cover {2}, not the base support",
        ),
        (
            _dual_missing_its_last_base, 17,
            {"ground_set": ["1", "2", "3"], "bases": [["1", "2"], ["1", "3"], ["2", "3"]]},
            "complements {{2},{3}} of the flag transversals are not a proper part "
            "of the dual bases",
        ),
    ]

    @pytest.mark.parametrize("mutate,failed,first,detail", MUTANTS)
    def test_mutant_failure_detail_is_pinned(self, monkeypatch, mutate, failed, first, detail):
        mutate(monkeypatch)
        outcome = verify(population(4), [lookup_check("thm_334")]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (91, failed)
        assert outcome.witnesses[0] == {"matroid": first, "detail": detail}

    def test_search_mutant_fails_on_unique_expansion(self, monkeypatch):
        # the searches run exactly where the flag transversals are all the
        # bases: on rank zero and on the unique expansion matroids
        real = classify_module._least_reduction

        def reducible(m, covers):
            if _walk_kind(m, covers) == "intersection":
                return classify_module.ClassificationResult(
                    False, classify_module.SubfamilyWitness(m.bases)
                )
            return real(m, covers)

        monkeypatch.setattr(classify_module, "_least_reduction", reducible)
        pop = population(4)
        searched = [m.to_doc() for m in pop if m.rank == 0 or is_unique_expansion(m).verdict]
        outcome = verify(pop, [lookup_check("thm_334")]).outcomes[0]
        assert [w["matroid"] for w in outcome.witnesses] == searched
        assert len(searched) == 4 + 70
        assert {w["detail"] for w in outcome.witnesses} == {
            "union minimal True but dual intersection minimal False"
        }


class TestSharedClosurePass:
    """`forming.expansion` and the flag of flats behind `thm_334` read one
    closure pass, `matroid._expansion_of`; a mutant of it fails both."""

    def test_mutant_fails_thm_334(self, monkeypatch):
        _expansion_of_missing_its_lowest_bit(monkeypatch)
        outcome = verify(population(4), [lookup_check("thm_334")]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (91, 41)
        assert outcome.witnesses[0] == {
            "matroid": {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "detail": "flag transversals {{2}} cover {2}, not the base support",
        }

    def test_mutant_fails_expansion(self, monkeypatch):
        _expansion_of_missing_its_lowest_bit(monkeypatch)
        wrong = [
            (m, x) for m in population(3) for x in m.ground.all_subsets()
            if expansion(m, x) != expansion_oracle(m, x)
        ]
        assert len(wrong) == 29
        m, x = wrong[0]
        assert (m.to_doc(), x) == (
            {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]}, m.ground.empty()
        )
        assert expansion(m, x) == m.ground.subset("2")


class TestUniqueExpansionReaders:
    """`thm_50`, `thm_126`, `thm_52` and `prop_h` read the memoized
    unique-expansion verdict they test; a verdict pass that answers true for
    every matroid must make each of them fail."""

    U23 = {"ground_set": ["1", "2", "3"], "bases": [["1", "2"], ["1", "3"], ["2", "3"]]}
    MUTANTS = [
        ("thm_50", "unique expansion True but forming family partitions support False"),
        ("thm_126", "unique expansion True but |forming family| = 3, rank 2"),
        ("thm_52", "unique expansion True but one-per-block construction match False"),
        ("prop_h", "some base does not meet every block of {{1,2},{1,3},{2,3}} exactly once"),
    ]

    @pytest.mark.parametrize("check_id,detail", MUTANTS)
    def test_always_true_classifier_fails_the_check(self, monkeypatch, check_id, detail):
        monkeypatch.setattr(classify_module, "_fork_verdicts", lambda masks, exp: (True, True))
        pop = [m for m in population(4) if m.rank > 0]
        outcome = verify(pop, [lookup_check(check_id)]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (87, 17)
        assert outcome.witnesses[0] == {"matroid": self.U23, "detail": detail}

    def test_swapped_verdict_pass_fails_thm_50(self, monkeypatch):
        # the one pass returning (exchange, expansion): the 10 rank-positive
        # matroids with n <= 4 that are unique exchange but not unique
        # expansion, U(2,3) first, read as unique expansion
        real = matroid_module._fork_verdicts
        monkeypatch.setattr(
            classify_module, "_fork_verdicts", lambda masks, exp: real(masks, exp)[::-1]
        )
        pop = [m for m in population(4) if m.rank > 0]
        outcome = verify(pop, [lookup_check("thm_50")]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (87, 10)
        assert outcome.witnesses[0] == {"matroid": self.U23, "detail": self.MUTANTS[0][1]}


class TestDualInvolution:
    def test_mutant_failure_detail_is_pinned(self, monkeypatch):
        # a dual missing its last base fails on every matroid with two or
        # more bases; the first witness and a digest of every witness pin
        # the failure text
        _dual_missing_its_last_base(monkeypatch)
        outcome = verify(population(4), [lookup_check("dual_involution")]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (91, 61)
        assert outcome.witnesses[0] == {
            "matroid": {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "detail": "double dual differs from the original",
        }
        witnesses = json.dumps(outcome.witnesses).encode()
        assert hashlib.sha256(witnesses).hexdigest() == (
            "6466118f9bf0e24a781e065c04bafb8c01744c51ba1372d82e56cd01461d8856"
        )


def _matroid(labels, *bases):
    g = GroundSet(labels)
    return Matroid.from_bases(g, SetFamily(g, [g.subset(*b) for b in bases]))


U24 = [a + b for a, b in combinations("1234", 2)]


def _seeded(key, *bases):
    """The nested pair {1,2},{1,3}, unique expansion with the partition
    {1},{2,3}, with its memo fact `key` seeded: a forming family, or a
    matroid on {1,2,3}, from the label strings `bases`."""
    def craft(monkeypatch):
        m = _matroid("123", "12", "13")
        family = SetFamily(m.ground, [m.ground.subset(*b) for b in bases])
        m._facts[key] = family if key == "forming_family" else Matroid.from_bases(m.ground, family)
        return m

    craft.__name__ = f"_seeded_{key}"
    return craft


def _u24_said_unique_expansion(monkeypatch):
    # the verdicts fact says unique expansion, so prop_118 applies, and the
    # witness scan finds U(2,4)'s fork
    m = _matroid("1234", *U24)
    m._facts["unique_verdicts"] = (True, False)
    return m


def _grid_with_u24_dual(monkeypatch):
    m = _matroid("1234", "13", "14", "23", "24")
    m._facts["dual"] = _matroid("1234", *U24)
    return m


def _dual_of_higher_rank(monkeypatch):
    # the double dual holds, so only the rank slot can break the sum
    m = _matroid("123", "12", "13")
    dual = Matroid._trusted(m.ground, m.dual().bases)
    dual.rank += 1
    m._facts["dual"] = dual
    return m


class TestUnreachedFailureDetails:
    """Failure details that no matroid produces, each reached once by a
    crafted memo fact or a patched function that its check reads."""

    CASES = [
        ("cor_423", _seeded("forming_family", "123"), "|forming family| = 1 < rank 2"),
        ("prop_46", _seeded("forming_family", "1", "2"),
         "union of forming family {1,2} != base support {1,2,3}"),
        ("cor_336", _seeded("one_per_block_matroid", "12"),
         "base support {1,2} != partition support {1,2,3}"),
        ("thm_321", _seeded("one_per_block_matroid", "12", "13", "23"),
         "forming family {{1,2},{1,3},{2,3}} != defining partition {{1},{2,3}}"),
        ("prop_118", _u24_said_unique_expansion,
         "unique expansion matroid is not unique exchange: ExchangeWitness(base1={1,2}, "
         "base2={3,4}, removed='1', y1='3', y2='4')"),
        ("thm_120", _grid_with_u24_dual,
         "dual of unique expansion matroid is not unique exchange: ExchangeWitness("
         "base1={1,2}, base2={3,4}, removed='1', y1='3', y2='4')"),
        ("dual_involution", _dual_of_higher_rank, "ranks 2 + 2 != ground size 3"),
    ]

    @pytest.mark.parametrize(
        "check_id,craft,detail", CASES, ids=[f"{c}{f.__name__}" for c, f, _ in CASES]
    )
    def test_detail_is_pinned(self, monkeypatch, check_id, craft, detail):
        m = craft(monkeypatch)
        outcome = verify([m], [lookup_check(check_id)]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (1, 1)
        assert outcome.witnesses == [{"matroid": m.to_doc(), "detail": detail}]


class TestFormingChecksAgainstOracles:
    """`prop_341`, `prop_124` and `lemma_e` read the base-relative block masks;
    the oracles build each base's forming family as a `SetFamily` and must
    give the same text.  `lemma_66` reads the same walk, so a mutant of it
    fails all four."""

    CASES = [
        ("prop_341", prop_341_oracle),
        ("prop_124", prop_124_oracle),
        ("lemma_e", lemma_e_oracle),
    ]
    # lemma_e cannot fail on any family: the block of each base element holds
    # that element and no other element of the base
    EQUAL_SIZE_FAILURES = {"prop_341": 0, "prop_124": 27, "lemma_e": 0}
    MIXED_FAILURES = {"prop_341": 1672, "prop_124": 1845, "lemma_e": 0}

    # a broken block list fails each check on every matroid it applies to
    # with n <= 4 (the 87 rank-positive ones, or the 26 of rank one); the
    # first witness and a digest of every witness, in report order, pin each
    # check's failure text.  A missing block leaves an element of the base in
    # no block, a repeated one puts it in two: the two ways lemma_e's mask
    # pass can fail
    MUTANTS = [
        (
            "prop_341", "|forming family wrt {1}| = 0 != rank 1",
            "afc729c87c3ec0407d525ad00ce8897cb73522fa72f0667ff4dc4fffd37e1425", 87,
            _forming_blocks_missing_the_last,
        ),
        (
            "prop_124", "union of forming family wrt {1} is {} != {1}",
            "9a2346b8900bb21d3a170ec72c9cf78c86d7bb5498746fb9a562f9079bdbe88e", 87,
            _forming_blocks_missing_the_last,
        ),
        (
            "lemma_e", "element 1 of base {1} lies in 0 blocks of {}",
            "4ae0697a7a802fc5ce25f0837508e1e4df8217c4f7f5641dc3144793bdb9cac0", 87,
            _forming_blocks_missing_the_last,
        ),
        (
            "lemma_e", "element 1 of base {1} lies in 2 blocks of {{1}}",
            "be6569009eff7fa0b5aead4f0ac1e837b6e1ee45e7d84fe17e22ddb3d631cf50", 87,
            _forming_blocks_repeating_the_first,
        ),
        (
            "lemma_66", "rank-one forming family wrt {1} is {}, not {{1}}",
            "5aaca28cfb2b0af29eed1eca3bf1ba5422541398ef4f78c4d7afc459adb993cb", 26,
            _forming_blocks_missing_the_last,
        ),
    ]

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

    def test_prop_341_counts_distinct_blocks(self, monkeypatch):
        # a repeated block leaves the list rank-many entries long, so only a
        # count of the distinct blocks, as the oracle's `SetFamily` counts
        # them, fails every matroid of rank two or more
        _forming_blocks_first_for_last(monkeypatch)
        pop = population(4)
        outcome = verify(pop, [lookup_check("prop_341")]).outcomes[0]
        ranked = [m.to_doc() for m in pop if m.rank > 1]
        assert (outcome.applicable, outcome.failed, len(ranked)) == (87, 61, 61)
        assert [w["matroid"] for w in outcome.witnesses] == ranked
        assert outcome.witnesses[0]["detail"] == "|forming family wrt {1,2}| = 1 != rank 2"

    @staticmethod
    @st.composite
    def _block_lists(draw):
        # a family of nonempty masks, so of positive rank, and per base a
        # block list of any shape: masks of the ground, which may miss the
        # base's elements or overlap, and repeated singletons, which put one
        # element in two, three or more blocks
        n = draw(st.integers(1, 6))
        mask = st.integers(0, (1 << n) - 1)
        single = st.sampled_from([1 << i for i in range(n)])
        bases = draw(st.frozensets(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
        blocks = st.lists(st.one_of(mask, single), max_size=6)
        return n, {b: draw(blocks) for b in sorted(bases)}

    # element 0 of {0,1,2} is in one block, 1 in three and 2 in none: the
    # least of the two bad elements is named, with its three hits
    @settings(max_examples=300, deadline=None)
    @given(_block_lists())
    @example((4, {0b0111: [0b0011, 0b0010, 0b1010]}))
    def test_lemma_e_names_the_least_bad_element_on_any_block_lists(self, case):
        # lemma_e's one mask pass against a recount of every element's hits,
        # base by base in canonical order, on block lists no matroid builds
        n, lists = case
        g = GroundSet(str(i) for i in range(n))
        m = Matroid._trusted(g, SetFamily.from_masks(g, lists))
        m._facts["forming_blocks"] = walk = [(b, lists[b]) for b in m.bases._order]

        def recount():
            for b, blocks in walk:
                for i in range(n):
                    hits = sum(k >> i & 1 for k in blocks)
                    if b >> i & 1 and hits != 1:
                        fam = SetFamily.from_masks(g, blocks)
                        return f"element {i} of base {g.from_mask(b)} lies in {hits} blocks of {fam}"
            return None

        assert lookup_check("lemma_e").run(m) == recount()

    @pytest.mark.parametrize("check_id,detail,digest,applicable,mutant", MUTANTS)
    def test_mutant_failure_detail_is_pinned(
        self, monkeypatch, check_id, detail, digest, applicable, mutant
    ):
        mutant(monkeypatch)
        outcome = verify(population(4), [lookup_check(check_id)]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (applicable, applicable)
        first = {"ground_set": ["1"], "bases": [["1"]]}
        assert outcome.witnesses[0] == {"matroid": first, "detail": detail}
        witnesses = json.dumps(outcome.witnesses).encode()
        assert hashlib.sha256(witnesses).hexdigest() == digest


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
                if one_per_block(bases, blocks)
            ]

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
        # a build is a miss of the memo decorator on the map's key, whoever
        # reads it
        calls = []
        real = matroid_module._miss

        def counted(m, name, build, *args):
            if name == "expansions":
                calls.append(1)
            return real(m, name, build, *args)

        monkeypatch.setattr(matroid_module, "_miss", counted)
        pop = [m for m in enumerate_matroids(4) if m.rank > 0]
        # thm_321 takes the forming family of a matroid it builds itself
        registry = [c for c in theorem_registry() if c.check_id != "thm_321"]
        assert verify(pop, registry).failures == 0
        # thm_120 classifies each matroid's dual, a new value whose memo
        # `from_bases` seeds with the map its validation built, at every
        # rank, so neither the 50 positive-rank duals nor the rank-zero ones
        # build a map here
        thm_120 = lookup_check("thm_120")
        duals = [m for m in pop if thm_120.applies(m) and m.rank < m.ground.size]
        assert (len(pop), len(duals)) == (67, 50)
        assert len(calls) == len(pop)

    def test_support_partitions_are_walked_once_per_matroid(self, monkeypatch):
        # thm_33 (on every matroid) and prop_103 (at positive rank) read one
        # walk; the walk recurses through `setalgebra`, so only its top-level
        # calls are counted here
        calls = []
        real = harness._partition_masks

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(harness, "_partition_masks", counted)
        pop = population(4)
        assert verify(pop).failures == 0
        assert len(calls) == len(pop) == 91

    def test_forming_blocks_are_built_once_per_matroid(self, monkeypatch):
        # prop_341, prop_124, lemma_e and lemma_66 read one block list per
        # base: one `_blocks_wrt` call per base of each rank>0 matroid
        calls = []
        real = forming_module._blocks_wrt

        def counted(exp, b):
            calls.append(1)
            return real(exp, b)

        monkeypatch.setattr(forming_module, "_blocks_wrt", counted)
        pop = population(4)
        assert verify(pop).failures == 0
        assert len(calls) == sum(len(m.bases) for m in pop if m.rank > 0) == 198

    @pytest.mark.parametrize("source", ["matroids_up_to_four", "mixed_size_families"])
    def test_shared_walks_are_left_as_built(self, source):
        # every check reads the kept lists and none changes them in place: after
        # the whole registry they equal the lists a fresh, equal value builds
        pop = population(4) if source == "matroids_up_to_four" else mixed_size_families()
        verify(pop)
        for m in pop:
            fresh = Matroid._trusted(m.ground, m.bases)
            kept = m._facts["one_per_block_partitions"]
            assert kept == harness._one_per_block_partitions(fresh)
            if m.rank > 0:
                built = forming_module._forming_blocks(fresh)
                assert m._facts["forming_blocks"] == built
            else:
                assert "forming_blocks" not in m._facts

    def test_one_per_block_matroid_is_built_once_per_matroid(self, monkeypatch):
        calls = []
        real = harness.make_unique_partition_matroid

        def counted(ground, p):
            calls.append(1)
            return real(ground, p)

        monkeypatch.setattr(harness, "make_unique_partition_matroid", counted)
        pop = population(4)
        assert verify(pop).failures == 0
        # six checks compare against the recovered partition's one-per-block
        # matroid, which exists exactly for the unique expansion matroids
        unique = [m for m in pop if m.rank > 0 and is_unique_expansion(m).verdict]
        assert (len(pop), len(unique)) == (91, 70)
        assert len(calls) == len(unique)

    def test_cap_one_matroid_is_built_once_per_matroid(self, monkeypatch):
        # prop_302_304 and the cap-1 case of prop_303 share it; the full-cap
        # case of prop_303 builds its own matroid, with a cap above one
        # unless every block is a single element, when the two cases are one
        calls = []
        real = harness.make_partition_matroid

        def counted(ground, p, caps):
            if set(caps) <= {1}:
                calls.append(1)
            return real(ground, p, caps)

        monkeypatch.setattr(harness, "make_partition_matroid", counted)
        pop = population(5)
        assert verify(pop).failures == 0
        unique = [m for m in pop if m.rank > 0 and is_unique_expansion(m).verdict]
        assert (len(pop), len(unique)) == (497, 272)
        assert len(calls) == len(unique)

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

    def test_a_warm_read_is_one_memo_lookup(self, monkeypatch):
        # each read looks in the memo before it computes any prerequisite,
        # and the base support is a fact: a warm read asks the memo once,
        # under its own key, misses nothing, builds no family and returns the
        # kept object
        reads = {
            "partition": recover_partition,
            "forming_family": forming_family,
            "support": Matroid.support,
            "union_minimal": lambda m: classify_module._minimality_search(m, "union"),
            "one_per_block_partitions": harness._one_per_block_partitions,
        }
        pop = [m for m in population(4) if m.rank > 0]
        for m in pop:
            verify([m])
            for read in reads.values():
                read(m)  # warms what verify does not read, such as a union search
        lookups, misses, families = [], [], []

        class CountedMemo(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        def miss(m, name, build):
            misses.append(name)
            return build(m)

        for m in pop:
            monkeypatch.setattr(m, "_facts", CountedMemo(m._facts))
        monkeypatch.setattr(matroid_module, "_miss", miss)
        for name in ("union", "intersection"):
            real = getattr(SetFamily, name)
            monkeypatch.setattr(
                SetFamily, name,
                lambda self, _real=real, _name=name: families.append(_name) or _real(self),
            )
        for m in pop:
            for key, read in reads.items():
                before = dict(m._facts)
                value = read(m)
                assert lookups == [key], (m, key, lookups)
                assert misses == [] and families == [], (m, key, misses, families)
                assert m._facts == before and value is before[key]
                lookups.clear()

    def test_a_build_that_raises_stores_no_key(self):
        # U(2,4)'s forming family is no partition, so its one-per-block
        # matroid raises on every read and the memo keeps only what the
        # build read before it raised
        m = Matroid.from_doc({
            "ground_set": list("1234"),
            "bases": [list(pair) for pair in combinations("1234", 2)],
        })
        for _ in range(2):
            with pytest.raises(harness._MissingFact):
                harness._one_per_block_matroid(m)
            assert "one_per_block_matroid" not in m._facts
            assert m._facts["partition"] is None

    # every fact a full-registry sweep keeps; each one has a second reader.
    # A fact added here states its measured warm hits in CHANGES.md
    KEPT = {
        "expansions", "support", "dual", "unique_verdicts", "union_minimal",
        "partition", "forming_family", "forming_blocks", "one_per_block_matroid",
        "capped_matroid", "one_per_block_partitions",
    }

    def test_a_sweep_keeps_only_the_shared_facts(self):
        # a witness, a flag, the base intersection or an intersection search
        # is read once, so no memo keeps it; a dual keeps only the map its
        # validation built and the verdicts thm_120 reads
        pop = [Matroid.from_bases(m.ground, m.bases) for m in population(5)]
        assert verify(pop).failures == 0
        assert set().union(*(m._facts for m in pop)) == self.KEPT
        duals = [m._facts["dual"] for m in pop]
        assert set().union(*(d._facts for d in duals)) == {"expansions", "unique_verdicts"}

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
    # every fact of the catalog, in order; each must hold
    ROWS = [
        ("example_300", "forming_family_nested"),
        ("example_300", "forming_family_uniform"),
        ("example_47", "covering_not_partition"),
        ("example_48", "two_expansions"),
        ("example_73", "unique_expansion"),
        ("example_119", "unique_exchange_only"),
        ("example_121", "exchange_but_dual_not_expansion"),
        ("example_333", "reducible"),
        ("example_333", "irreducible"),
        ("example_338", "two_repairs"),
        ("prop_42_union", "both_union_minimal"),
        ("prop_42_union", "same_support_and_rank"),
        ("prop_42_union", "not_isomorphic"),
        ("prop_42_intersection", "both_intersection_minimal"),
        ("prop_42_intersection", "same_intersection_and_rank"),
        ("prop_42_intersection", "not_isomorphic"),
    ]

    def test_all_facts_hold(self):
        rows = check_examples()
        failed = [(e, f) for e, f, ok in rows if not ok]
        assert failed == []

    def test_the_catalog_rows_are_pinned_and_hold(self):
        assert check_examples() == [(e, f, True) for e, f in self.ROWS]

    def test_catalog_covers_the_expected_examples(self):
        names = list(dict.fromkeys(e for e, _, _ in check_examples()))
        assert names == [
            "example_300", "example_47", "example_48", "example_73",
            "example_119", "example_121", "example_333", "example_338",
            "prop_42_union", "prop_42_intersection",
        ]

    def test_examples_pass_the_full_registry(self):
        # the eight example matroids, built as the catalog builds them
        matroids = [
            harness._from_low(labels, bases)
            for labels, bases in [
                ("123", ["12", "13"]),
                ("123", ["12", "13", "23"]),
                ("1234", ["123", "124", "134"]),
                ("1234", ["12", "13", "14"]),
                ("12345", ["123", "124", "134", "125", "145"]),
                ("12345", ["12", "13", "14"]),
                ("12345", ["13", "14", "23", "24"]),
                ("12345", ["23", "24", "34"]),
            ]
        ]
        report = verify(matroids)
        assert report.failures == 0
        assert report.total == len(matroids) == 8


class TestDefinitionalScans:
    """`prop_51_j`, `prop_303`, `prop_305_306` and `prop_339` compare a base
    family with every subset its definition describes."""

    SCAN_CHECKS = ("prop_51_j", "prop_303", "prop_305_306", "prop_339")

    # each mutant breaks one side of a comparison; the first witness and a
    # digest of every witness, in report order, pin each check's failure text
    MUTANTS = [
        (
            "prop_51_j", _one_block_forming_family, 44,
            {"ground_set": ["1", "2"], "bases": [["1", "2"]]},
            "{1}: base membership False but one-per-block description True",
            "71b38d1d3471226504d3e5d5e45e7a86a3e6575eec6687480f93e5949a8b1c5a",
        ),
        (
            "prop_303", _lossy_cap_one_picks, 44,
            {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "cap vector (1,): built bases differ from the definitional filter",
            "50e3a773327361bee1f79a78e0bbaecdd88632d8c484307e552909d8e4b56963",
        ),
        (
            "prop_305_306", _one_per_block_matroid_missing_its_last_base, 44,
            {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "{2}: membership False vs description True",
            "4fcb0a0bd65255b87c27fa3e923d061e46073c9e35704108052c74b881a8f05f",
        ),
        (
            "prop_339", _one_per_block_matroid_missing_its_last_base, 44,
            {"ground_set": ["1", "2"], "bases": [["1"], ["2"]]},
            "{1}: dual membership False vs description True",
            "e641b6e85cb19101bd41c94894688e733fab5268c335f731c91d38335c391be2",
        ),
    ]

    @pytest.mark.parametrize("check_id,mutate,failed,first,detail,digest", MUTANTS)
    def test_mutant_failure_detail_is_pinned(
        self, monkeypatch, check_id, mutate, failed, first, detail, digest
    ):
        mutate(monkeypatch)
        outcome = verify(population(4), [lookup_check(check_id)]).outcomes[0]
        assert (outcome.applicable, outcome.failed) == (70, failed)
        assert outcome.witnesses[0] == {"matroid": first, "detail": detail}
        witnesses = json.dumps(outcome.witnesses).encode()
        assert hashlib.sha256(witnesses).hexdigest() == digest

    @staticmethod
    def _as_complement(g, support, quotas):
        # the oracle's complement shape as the scan states it: X's complement
        # lies in the support S and meets each k in c elements exactly when X,
        # over the whole ground, holds |k & S| - c elements of k & S and the
        # rest E - S whole, the rest left out when empty as prop_339 does
        rest = g.full().mask & ~support
        kept = [(k & support, (k & support).bit_count() - c) for k, c in quotas]
        return g.full(), kept + ([(rest, rest.bit_count())] if rest else [])

    @classmethod
    def _call_sites(cls, m):
        # each scanning check's call on a unique expansion m, with the
        # oracle's arguments for the same description
        p = harness._recovered(m)
        blocks = [b.mask for b in p]
        forming = [k.mask for k in forming_family(m)]
        ones, full = (1,) * len(p), tuple(len(b) for b in p)
        dual = harness._one_per_block_matroid(m).dual().bases.masks()
        sites = [((m.bases.masks(), m.support(), [(k, 1) for k in forming]),
                  (m.bases.masks(), m.support(), forming, None, False))]
        for caps in (ones, full):
            masks = make_partition_matroid(m.ground, p, caps).bases.masks()
            sites.append(((masks, p.support(), list(zip(blocks, caps))),
                          (masks, p.support(), blocks, caps, False)))
        scope = cls._as_complement(m.ground, p.support().mask, [(k, 1) for k in blocks])
        sites.append(((dual, *scope), (dual, p.support(), blocks, None, True)))
        return sites

    @staticmethod
    def _unique_expansion(max_n):
        return [m for m in population(max_n) if m.rank > 0 and is_unique_expansion(m).verdict]

    def test_scan_matches_the_oracle_at_every_call_site(self):
        sites = 0
        for m in self._unique_expansion(5):
            for args, reference in self._call_sites(m):
                assert harness._definitional_scan(*args) == definitional_scan_oracle(*reference)
                sites += 1
        assert sites == 4 * 272

    def test_perturbed_families_give_the_oracle_mismatch(self):
        # flipping one mask's membership drops a base, adds a non-base inside
        # the support or adds a mask outside it; the scan must name the same
        # least mismatch as the walk over every mask
        kinds = {"drop": 0, "add": 0, "outside": 0}
        for m in self._unique_expansion(5):
            g = m.ground
            for (masks, *scope), (_, support, blocks, caps, complement) in self._call_sites(m):
                flip = g.full().mask if complement else 0
                for mask in range(1 << g.size):
                    if mask in masks:
                        kinds["drop"] += 1
                    elif (mask ^ flip) & ~support.mask:
                        kinds["outside"] += 1
                    else:
                        kinds["add"] += 1
                    hit = harness._definitional_scan(masks ^ {mask}, *scope)
                    assert hit is not None
                    assert hit == definitional_scan_oracle(
                        masks ^ {mask}, support, blocks, caps, complement
                    )
        assert min(kinds.values()) > 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scan_matches_the_oracle_on_any_shape(self, data):
        # shapes no call site makes: blocks that overlap, are empty or reach
        # outside the support, and base masks that are random or the
        # described family with up to two masks flipped.  A complement shape
        # is scanned as prop_339 states its dual bases, with its caps drawn
        # from 0 to |k & S|, as a quota is a count and none is below zero;
        # other shapes draw caps from 0 to |k| + 1
        n = data.draw(st.integers(1, 8), label="n")
        g = GroundSet(str(i) for i in range(n))
        mask = st.integers(0, (1 << n) - 1)
        support = data.draw(mask, label="support")
        blocks = data.draw(st.lists(mask, max_size=4), label="blocks")
        complement = data.draw(st.booleans(), label="complement")
        tops = [(k & support).bit_count() if complement else k.bit_count() + 1 for k in blocks]
        caps = [data.draw(st.integers(0, top), label="cap") for top in tops]
        if data.draw(st.booleans(), label="near the description"):
            flip = (1 << n) - 1 if complement else 0
            described = frozenset(
                x ^ flip for x in range(1 << n)
                if not x & ~support and all((x & k).bit_count() == c for k, c in zip(blocks, caps))
            )
            masks = described ^ data.draw(st.frozensets(mask, max_size=2), label="flips")
        else:
            masks = data.draw(st.frozensets(mask, max_size=24), label="masks")
        quotas = list(zip(blocks, caps))
        scope = self._as_complement(g, support, quotas) if complement else (Subset(g, support), quotas)
        reference = (masks, Subset(g, support), blocks, caps, complement)
        assert harness._definitional_scan(masks, *scope) == definitional_scan_oracle(*reference)

    def test_scan_names_the_least_mismatch_on_forty_elements(self):
        # U(1,40): the bases are the 40 singletons and the one block is the
        # whole ground.  By hand: with {39} dropped, every smaller singleton
        # is a base, so {39} is the least mismatch; with {3,5} (mask 40)
        # added, the singletons up to {5} are bases and {3,5} comes before
        # {6}; with {2} dropped as well, {2} comes first
        u = rank_one_uniform(40)
        g, masks = u.ground, u.bases.masks()
        full = g.full().mask
        scope = (g.full(), [(full, 1)])
        assert harness._definitional_scan(masks, *scope) is None
        assert harness._definitional_scan(masks - {1 << 39}, *scope) == (g.subset("39"), False)
        added = masks | {1 << 3 | 1 << 5}
        assert harness._definitional_scan(added, *scope) == (g.subset("3", "5"), True)
        assert harness._definitional_scan(added - {1 << 2}, *scope) == (g.subset("2"), False)
        # the dual's bases are the 39-element sets, the least being the
        # complement of {39}; the complement of {3,5} lies between those of
        # {6} and {5}, and with it added the complements of {39} down to {6}
        # are bases, while with the complement of {0}, the greatest, dropped
        # it is the only mismatch
        dual = u.dual().bases.masks()
        scope = (g.full(), [(full, 39)])
        assert harness._definitional_scan(dual, *scope) is None
        assert harness._definitional_scan(dual - {full ^ 1}, *scope) == (g.from_mask(full ^ 1), False)
        assert harness._definitional_scan(dual | {full ^ 40}, *scope) == (g.from_mask(full ^ 40), True)

    def test_scans_pass_rank_one_uniform_at_any_size(self):
        # the scans never list the subsets of the support, so U(1,n) passes
        # all four at any n, with none capped; the dual of U(1,64) has 64 bases
        registry = [lookup_check(check_id) for check_id in self.SCAN_CHECKS]
        for n in (16, 17, 64):
            report = verify([rank_one_uniform(n)], registry)
            assert [(o.passed, o.failed, o.capped) for o in report.outcomes] == [(1, 0, 0)] * 4

    def test_large_grounds_are_capped_not_hung(self):
        # a scan over all 2^40 subsets would never finish; only the two
        # exhaustive minimality searches are capped, on the matroids with
        # more than 20 bases
        src = Path(harness.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("large_grounds.py"))],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert run.returncode == 0, run.stderr
        assert run.stderr.split() == [PINNED[3]]
        rows = {row["id"]: row for row in json.loads(run.stdout)["checks"]}
        assert len(rows) == 28
        matroids = large_ground_matroids()
        many = [m for m in matroids if len(m.bases) > 20]
        assert [len(m.bases) for m in many] == [40, 4096]
        for check_id, row in rows.items():
            if check_id in ("thm_334", "thm_552"):
                capped = [m.to_doc() for m in many]
                details = [f"{len(m.bases)} bases exceed the exhaustive search cap 20" for m in many]
            else:
                capped, details = [], []
            assert [hit["matroid"] for hit in row["cap_hits"]] == capped
            assert [hit["detail"] for hit in row["cap_hits"]] == details
            assert row["failed"] == 0
            assert row["passed"] == row["applicable"] - len(capped)
        for check_id in self.SCAN_CHECKS:
            assert rows[check_id]["applicable"] == 3
