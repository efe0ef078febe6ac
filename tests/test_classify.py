from itertools import combinations

import pytest

from matroidlab import (
    ClassificationResult,
    ExchangeWitness,
    ExpansionWitness,
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    enumerate_matroids,
    forming_family,
    intersection_minimal,
    is_intersection_minimal,
    is_partition,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    make_partition_matroid,
    make_unique_partition_matroid,
    recover_partition,
    union_minimal,
)
from matroidlab import classify as classify_module
from matroidlab import matroid as matroid_module
from matroidlab.classify import _flag_blocks, _minimality_search
from matroidlab.errors import RankZero, SearchCapExceeded
from matroidlab.setalgebra import one_per_block

from oracles import flag_witness_oracle, subset_of


def fam(ground, *label_sets):
    return SetFamily(ground, (ground.subset(*s) for s in label_sets))


def mk(labels, *bases):
    g = GroundSet(labels)
    return Matroid.from_bases(g, fam(g, *bases))


@pytest.fixture
def uniform3():
    return mk("123", "12", "13", "23")


def uniform(rank, size):
    """U(rank, size) on the labels 1..size."""
    g = GroundSet(str(i) for i in range(1, size + 1))
    return Matroid.from_bases(
        g, SetFamily(g, (subset_of(g, c) for c in combinations(range(size), rank)))
    )


class TestClassificationResult:
    def test_verdict_must_match_witness(self):
        g = GroundSet("123")
        witness = ExpansionWitness(g.subset("1"), g.subset("2", "3"), "2", "3")
        with pytest.raises(ValueError):
            ClassificationResult(True, witness)
        with pytest.raises(ValueError):
            ClassificationResult(False, None)


class TestUniqueExpansion:
    def test_nested_pair_is_unique(self):
        assert is_unique_expansion(mk("123", "12", "13")).verdict

    def test_uniform_fails_with_canonical_witness(self, uniform3):
        res = is_unique_expansion(uniform3)
        assert not res.verdict
        g = uniform3.ground
        assert res.witness == ExpansionWitness(
            g.subset("1"), g.subset("2", "3"), "2", "3"
        )

    def test_three_base_rank_three_fails(self):
        m = mk("1234", "123", "124", "134")
        res = is_unique_expansion(m)
        assert not res.verdict
        g = m.ground
        assert res.witness == ExpansionWitness(
            g.subset("1", "2"), g.subset("1", "3", "4"), "3", "4"
        )

    def test_rank_zero_rejected(self):
        with pytest.raises(RankZero):
            is_unique_expansion(mk("123", ""))

    def test_witness_replays_against_the_definition(self, uniform3):
        w = is_unique_expansion(uniform3).witness
        g = uniform3.ground
        masks = uniform3.bases.masks()
        assert w.e1 != w.e2
        assert w.e1 in w.base and w.e2 in w.base
        assert (w.secondary.mask | 1 << g.index(w.e1)) in masks
        assert (w.secondary.mask | 1 << g.index(w.e2)) in masks


class TestUniqueExchange:
    def test_five_element_failure_with_canonical_witness(self):
        m = mk("12345", "123", "124", "134", "125", "145")
        res = is_unique_exchange(m)
        assert not res.verdict
        g = m.ground
        assert res.witness == ExchangeWitness(
            g.subset("1", "2", "3"), g.subset("1", "4", "5"), "3", "4", "5"
        )

    def test_exchange_without_expansion(self):
        m = mk("1234", "123", "124", "134")
        assert is_unique_exchange(m).verdict
        assert not is_unique_expansion(m).verdict

    def test_star_is_unique_exchange(self):
        assert is_unique_exchange(mk("1234", "12", "13", "14")).verdict

    def test_rank_zero_vacuously_true(self):
        assert is_unique_exchange(mk("12", "")).verdict

    def test_witness_takes_the_two_least_repairs(self):
        # unvalidated: removing 1 from {1} has three repairs in {2,3,4}
        g = GroundSet("1234")
        m = Matroid._trusted(g, fam(g, "1", "2", "3", "4", "234"))
        assert is_unique_exchange(m).witness == ExchangeWitness(
            g.subset("1"), g.subset("2", "3", "4"), "1", "2", "3"
        )

    def test_witness_replays_against_the_definition(self):
        m = mk("12345", "123", "124", "134", "125", "145")
        w = is_unique_exchange(m).witness
        g = m.ground
        masks = m.bases.masks()
        stripped = w.base1.mask ^ (1 << g.index(w.removed))
        assert w.removed in (w.base1 - w.base2)
        for y in (w.y1, w.y2):
            assert y in (w.base2 - w.base1)
            assert (stripped | (1 << g.index(y))) in masks


class TestUnionMinimal:
    def test_eight_base_partition_matroid_is_minimal(self):
        # 8 bases put 70 subfamilies in the middle size layer, all scanned
        m = mk("123456", *("".join(t) for t in
                           [(a, b, c) for a in "12" for b in "34" for c in "56"]))
        assert len(m.bases) == 8
        assert is_union_minimal(m).verdict
        assert is_intersection_minimal(m).verdict
        # a unique expansion matroid, answered by thm_552; the search agrees
        assert _search(m, "union").verdict

    def test_uniform_is_reducible(self, uniform3):
        res = is_union_minimal(uniform3)
        assert not res.verdict
        assert res.witness.subfamily == fam(uniform3.ground, "12", "13")

    def test_nested_pair_is_minimal(self):
        assert is_union_minimal(mk("123", "12", "13")).verdict

    def test_grid_on_five_is_minimal(self):
        assert is_union_minimal(mk("12345", "13", "14", "23", "24")).verdict

    def test_single_base_trivially_minimal(self):
        assert is_union_minimal(mk("123", "123")).verdict
        assert is_union_minimal(mk("123", "")).verdict

    def test_cap_guard(self):
        # past the cap of 20 bases the verdicts still come from the
        # certificate and a false one's witness from the flag; only the
        # registry's exhaustive search refuses
        u27 = uniform(2, 7)
        assert len(u27.bases) == 21
        for kind, verdict, classify in _MINIMALITY:
            assert verdict(u27) is False
            _assert_flag_witness(u27, kind, classify(u27))
            # the cap refuses before the memo is read, on every call, and
            # keeps no result and no boundary
            before = dict(u27._facts)
            for _ in range(2):
                with pytest.raises(SearchCapExceeded, match="21 bases exceed"):
                    _minimality_search(u27, kind)
            assert u27._facts == before and f"{kind}_minimal" not in before
        assert union_minimal(uniform(1, 21)) is True
        assert intersection_minimal(uniform(6, 7)) is True
        # one per block of {1,2,3}, {4,5,6}, {7,8,9}: 27 bases, and its dual
        g = GroundSet("123456789")
        opb = make_unique_partition_matroid(g, Partition(fam(g, "123", "456", "789")))
        assert len(opb.bases) == len(opb.dual().bases) == 27
        for m, want in ((opb, (True, False)), (opb.dual(), (False, True))):
            assert tuple(verdict(m) for _, verdict, _ in _MINIMALITY) == want
            for (kind, _, classify), minimal in zip(_MINIMALITY, want):
                if minimal:
                    assert classify(m) == ClassificationResult(True, None)
                else:
                    _assert_flag_witness(m, kind, classify(m))
                with pytest.raises(SearchCapExceeded, match="27 bases exceed"):
                    _minimality_search(m, kind)

    def test_result_is_memoized_behind_the_cap(self, uniform3):
        first = is_union_minimal(uniform3)
        assert is_union_minimal(uniform3) is first

    def test_witness_replays_against_the_definition(self, uniform3):
        sub = is_union_minimal(uniform3).witness.subfamily
        assert sub.masks() < uniform3.bases.masks()
        assert sub.union() == uniform3.support()
        Matroid.from_bases(uniform3.ground, sub)  # must validate


class TestIntersectionMinimal:
    def test_triangle_on_five_is_minimal(self):
        assert is_intersection_minimal(mk("12345", "23", "24", "34")).verdict

    def test_grid_on_five_is_minimal(self):
        assert is_intersection_minimal(mk("12345", "13", "14", "23", "24")).verdict

    def test_dual_of_uniform_is_reducible(self, uniform3):
        res = is_intersection_minimal(uniform3.dual())
        assert not res.verdict
        # the complements of U(2,3)'s flag transversals {1,2} and {1,3}
        # keep the empty intersection; the search finds {{1},{2}} instead
        assert res.witness.subfamily == fam(uniform3.ground, "2", "3")
        _assert_flag_witness(uniform3.dual(), "intersection", res)
        assert _search(uniform3.dual(), "intersection").witness.subfamily == fam(
            uniform3.ground, "1", "2"
        )

    def test_a_true_verdict_builds_no_dual(self, monkeypatch):
        # U(1,3)'s dual U(2,3), U(6,7), and the partition matroid with cap 2
        # on {1,2,3} and cap 1 on {4,5}: every cocircuit has two elements, and
        # the verdict is read off the expansion masks alone
        g = GroundSet("12345")
        p = Partition(fam(g, "123", "45"))
        pm = make_partition_matroid(g, p, tuple(len(b) - 1 for b in p))
        pop = [mk("123", "1", "2", "3").dual(), uniform(6, 7), pm]

        def no_dual(self):
            pytest.fail("a true intersection minimal verdict built a dual")

        monkeypatch.setattr(Matroid, "dual", no_dual)
        for m in pop:
            assert intersection_minimal(m) is True, m
            assert is_intersection_minimal(m) == ClassificationResult(True, None), m
            assert "dual" not in m._facts, m


class TestDeterminism:
    def _witnesses(self):
        u3 = mk("123", "12", "13", "23")
        m338 = mk("12345", "123", "124", "134", "125", "145")
        return (
            is_unique_expansion(u3).witness,
            is_unique_exchange(m338).witness,
            is_union_minimal(u3).witness,
            is_intersection_minimal(u3.dual()).witness,
        )

    def test_fixed_witness_across_runs(self):
        reference = self._witnesses()
        for _ in range(10):
            assert self._witnesses() == reference


class TestRecoverPartition:
    def test_nested_pair(self):
        m = mk("123", "12", "13")
        p = recover_partition(m)
        assert p == Partition(fam(m.ground, "1", "23"))

    def test_uniform_has_none(self, uniform3):
        assert recover_partition(uniform3) is None

    def test_one_per_block_matroid_round_trips(self):
        g = GroundSet("1234")
        p = Partition(fam(g, "12", "34"))
        m = make_unique_partition_matroid(g, p)
        assert recover_partition(m) == p

    def test_rank_zero_rejected(self):
        # on every call, with the forming family's message and no memo entry
        m = mk("1", "")
        for _ in range(2):
            with pytest.raises(RankZero, match="^secondary bases are undefined at rank zero$"):
                recover_partition(m)
        assert not {"forming_family", "partition"} & set(m._facts)

    def test_agrees_with_forming_family_partition_test(self):
        for m in _rank_positive(4):
            f = forming_family(m)
            expected = Partition(f) if is_partition(f, m.support()) else None
            assert recover_partition(m) == expected

    def test_cold_recovery_never_ors_the_forming_family(self, monkeypatch):
        # the partition test and the Partition value each take one
        # disjoint-union pass over the masks; neither calls SetFamily.union
        # on the forming family
        ored = []
        real = SetFamily.union
        monkeypatch.setattr(SetFamily, "union", lambda self: ored.append(self) or real(self))
        pop = _rank_positive(5)
        assert len(pop) == 492
        for m in pop:
            cold = Matroid.from_bases(m.ground, m.bases)
            recover_partition(cold)
            assert not [f for f in ored if f is forming_family(cold)], m
            ored.clear()


class TestAgainstDefinitionOracles:
    def test_minimality_matches_literal_quantification(self):
        # both classifiers on every matroid with n <= 4, and the bare
        # intersection verdict, read off the expansion masks, on n <= 5
        from oracles import intersection_minimal_oracle, union_minimal_oracle

        for m in _population(4):
            assert is_union_minimal(m).verdict == union_minimal_oracle(m)
            assert is_intersection_minimal(m).verdict == intersection_minimal_oracle(m)
        for m in _population(5):
            assert intersection_minimal(m) == intersection_minimal_oracle(m), m

    def test_distinct_expansion_masks_are_the_cocircuits(self):
        # the cocircuits from rank scans alone, on every matroid with n <= 5
        from oracles import cocircuits_oracle

        for m in _population(5):
            assert frozenset(m._expansion_map().values()) == cocircuits_oracle(m).masks(), m

    def test_intersection_minimal_count_is_bell(self):
        # Bell(n + 1) intersection minimal matroids on n elements, and each
        # verdict is the route through the dual's union minimality
        # (`thm_334`), on every matroid with n <= 6
        from intersection_route import bell_numbers

        bell = bell_numbers(8)
        counts = dict.fromkeys(range(1, 7), 0)
        for m in _population(6):
            verdict = intersection_minimal(m)
            assert verdict == union_minimal(m.dual()), m
            counts[m.ground.size] += verdict
        assert counts == {n: bell[n + 1] for n in range(1, 7)}
        assert list(counts.values()) == [2, 5, 15, 52, 203, 877]

    def test_minimality_witness_matches_plain_scan(self):
        for m in _population(5):
            _assert_minimality_witnesses(m)

    @pytest.mark.parametrize("sizes", [(2, 2, 4), (2, 8), (3, 4)])
    def test_minimality_witness_on_partition_shapes(self, sizes):
        # the unique partition matroids the analyze benchmark feeds in, with
        # loops filling a 12-label ground; 12 or 16 bases, union minimal
        g = GroundSet(str(i) for i in range(1, 13))
        blocks, start = [], 0
        for size in sizes:
            blocks.append(subset_of(g, range(start, start + size)))
            start += size
        _assert_minimality_witnesses(
            make_unique_partition_matroid(g, Partition(SetFamily(g, blocks)))
        )

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_minimality_witness_on_uniform_six(self, r):
        # U(2,6), U(3,6) and U(4,6), with 15, 20 and 15 bases: many of their
        # base pairs are two swaps apart, each with four requirements read
        # off the expansion map
        g = GroundSet("123456")
        bases = SetFamily(g, [subset_of(g, c) for c in combinations(range(6), r)])
        _assert_minimality_witnesses(Matroid.from_bases(g, bases))

    def test_unique_expansion_matches_oracle_witness(self):
        # the one-pass verdict, and the scan's witness of a false one, on all
        # 4,304 matroids with n <= 6 and their duals
        from oracles import unique_expansion_oracle

        for m in _rank_positive(6):
            for x in (m, m.dual()):
                if x.rank == 0:
                    continue
                res = is_unique_expansion(x)
                w = res.witness
                got = None if w is None else (w.secondary, w.base, w.e1, w.e2)
                assert got == unique_expansion_oracle(x)

    def test_unique_exchange_matches_oracle_witness(self):
        from oracles import unique_exchange_oracle

        for m in _population(6):
            for x in (m, m.dual()):
                assert _exchange_witness(x) == unique_exchange_oracle(x)

    def test_unique_exchange_matches_oracle_on_mixed_families(self):
        # unvalidated families of mixed sizes, including those whose first
        # member is the empty set next to larger ones (rank zero, own map)
        from oracles import mixed_size_families, unique_exchange_oracle

        for family in mixed_size_families():
            assert _exchange_witness(family) == unique_exchange_oracle(family), family

    def test_unique_expansion_matches_the_scan_on_mixed_families(self):
        # the one pass holds for families of any shape; `unique_expansion_oracle`
        # reads ranks, which such a family lacks, so the verdict is checked
        # against the canonical scan over every expansion mask instead
        from oracles import mixed_size_families

        false_verdicts = 0
        for family in mixed_size_families():
            if family.rank == 0:
                continue
            try:
                scanned = classify_module._expansion_witness(family)
            except RuntimeError:
                scanned = ClassificationResult(True, None)
            assert is_unique_expansion(family) == scanned, family
            false_verdicts += not scanned.verdict
        assert false_verdicts == 511

    def test_false_verdict_without_witness_raises(self, monkeypatch):
        # a verdict pass that answers false where the scans find nothing
        monkeypatch.setattr(classify_module, "_fork_verdicts", lambda masks, exp: (False, False))
        m = mk("123", "1", "2", "3")
        with pytest.raises(RuntimeError, match="not unique expansion"):
            is_unique_expansion(m)
        with pytest.raises(RuntimeError, match="not unique exchange"):
            is_unique_exchange(m)

    def test_minimality_search_takes_an_empty_first_member(self):
        # the first member of {{}, {1}} covers nothing, so the size bound
        # must not divide by its size
        g = GroundSet("12")
        family = Matroid._trusted(g, SetFamily(g, [g.subset(), g.subset("1")]))
        # {1} alone keeps the union {1}; {} alone keeps the intersection {}
        for kind, want in (("union", "1"), ("intersection", "")):
            res = _minimality_search(family, kind)
            assert res.witness.subfamily == fam(g, want), kind


    def test_minimality_search_matches_oracle_on_mixed_families(self):
        # two bases are one swap apart only when each holds exactly one
        # element the other lacks: {1} and {} are not, since ({1}, {}, 1)
        # has no repair, so {{},{1}} is no intersection witness of
        # {{},{1},{2}}; every family has at most 8 sets, under the search cap
        from oracles import minimality_witness_oracle, mixed_size_families

        for family in mixed_size_families():
            for kind in ("union", "intersection"):
                fresh = Matroid._trusted(family.ground, family.bases)
                res = _minimality_search(fresh, kind)
                got = None if res.verdict else res.witness.subfamily
                assert got == minimality_witness_oracle(family, kind), (family, kind)


class TestClassImplicationsOverPopulation:
    def test_unique_expansion_closes_downward(self):
        # expansion-unique implies exchange-unique and union minimal
        for m in _rank_positive(4):
            if is_unique_expansion(m).verdict:
                assert is_unique_exchange(m).verdict
                assert is_union_minimal(m).verdict
                assert _search(m, "union").verdict
                assert is_unique_exchange(m.dual()).verdict

    def test_union_minimal_gives_the_search_verdict_and_witness(self):
        # the certificate against the search, and the classifier's witness
        # against the flag oracle, for both kinds on every matroid with
        # n <= 6 and its dual; the bare certificate and each search run on a
        # fresh object
        for m in _population(6):
            for x in (m, m.dual()):
                for kind, verdict, classify in _MINIMALITY:
                    want = _search(x, kind)
                    assert verdict(_fresh(x)) == want.verdict, (x, kind)
                    res = classify(x)
                    assert res.verdict == want.verdict, (x, kind)
                    _assert_flag_witness(x, kind, res)

    def test_union_witness_is_the_thm_334_family(self):
        # the registry validates exactly the family the classifier returns
        reducible = 0
        for m in _population(6):
            if union_minimal(m):
                continue
            blocks = _flag_blocks(m)
            kept = [b for b in m.bases if one_per_block((b.mask,), blocks)]
            assert is_union_minimal(m).witness.subfamily == SetFamily(m.ground, kept), m
            reducible += 1
        assert reducible == 3150

    @pytest.mark.parametrize("classify, bases", [
        (is_union_minimal, ("12", "13", "23")),
        (is_intersection_minimal, ("1", "2", "3")),
    ])
    def test_a_false_verdict_without_witness_raises(self, monkeypatch, classify, bases):
        # U(2,3) is not union minimal and U(1,3) not intersection minimal; a
        # flag whose transversals are all the bases, or none, gives no
        # witness, a fault raised without an assert
        for keeps in (True, False):
            monkeypatch.setattr(classify_module, "one_per_block",
                                lambda masks, blocks: keeps)
            with pytest.raises(RuntimeError, match="finds no witness"):
                classify(mk("123", *bases))

    @pytest.mark.parametrize("classify, bases", [
        (is_union_minimal, ("12", "13", "23")),
        (is_intersection_minimal, ("1", "2", "3")),
    ])
    def test_a_false_verdict_runs_no_search(self, monkeypatch, classify, bases):
        # U(2,3) is not union minimal and U(1,3) not intersection minimal,
        # nor are U(2,7), U(5,7) (21 bases each, past the cap) and U(2,21)
        # (210 bases) either; no classifier searches for their witnesses
        def no_search(*args):
            pytest.fail("a classifier ran the exhaustive search")

        for name in ("_minimality_search", "_least_reduction"):
            monkeypatch.setattr(classify_module, name, no_search)
        for m in (mk("123", *bases), uniform(2, 7), uniform(5, 7), uniform(2, 21)):
            res = classify(m)
            assert not res.verdict
            assert res.witness.subfamily.masks() < m.bases.masks()

    def test_minimality_duality(self):
        for m in _population(4):
            assert (
                is_union_minimal(m).verdict
                == is_intersection_minimal(m.dual()).verdict
            )


class TestRankZeroExpansionMap:
    """At rank zero the classifiers read the one memoized map too: each
    matroid builds it at most once, and the verdicts and witnesses are the
    oracles'."""

    @staticmethod
    def _rank_zero_families():
        out = []
        for n in range(1, 5):
            g = GroundSet(str(i) for i in range(1, n + 1))
            zero = fam(g, "")
            # U(0,n) validated (its map seeded) and unvalidated (built on use)
            out += [Matroid.from_bases(g, zero), Matroid._trusted(g, zero)]
        g = GroundSet("12")
        out.append(Matroid._trusted(g, fam(g, "", "1", "2")))
        return out

    def test_map_is_built_at_most_once_and_matches_the_oracles(self, monkeypatch):
        from oracles import minimality_witness_oracle, unique_exchange_oracle

        # a build is a miss of the memo decorator, whoever reads the map
        builds = []
        real = matroid_module._miss

        def counted(m, name, build, *args):
            if name == "expansions":
                builds.append(m)
            return real(m, name, build, *args)

        monkeypatch.setattr(matroid_module, "_miss", counted)
        families = self._rank_zero_families()
        for m in families:
            assert m.rank == 0
            for kind in ("union", "intersection"):
                res = _minimality_search(m, kind)
                got = None if res.verdict else res.witness.subfamily
                assert got == minimality_witness_oracle(m, kind), (m, kind)
            assert _exchange_witness(m) == unique_exchange_oracle(m), m
        assert len({id(m) for m in builds}) == len(builds)
        # the validated U(0,n) came with its map; the others built theirs once
        assert len(builds) == len(families) - 4
        # {{},{1},{2}} is not union minimal (its singletons cover the
        # support), and its search alone keeps the map in the memo
        last = families[-1]
        fresh = Matroid._trusted(last.ground, last.bases)
        assert not _minimality_search(fresh, "union").verdict
        assert builds[-1] is fresh and fresh._facts["expansions"]


def _exchange_witness(m):
    res = is_unique_exchange(m)
    w = res.witness
    return None if w is None else (w.base1, w.base2, w.removed, w.y1, w.y2)


_MINIMALITY = (
    ("union", union_minimal, is_union_minimal),
    ("intersection", intersection_minimal, is_intersection_minimal),
)


def _assert_minimality_witnesses(m):
    """On m and its dual: both searches, run on fresh copies (so neither
    reads a kept result nor takes the certificate), give the plain scan's
    canonical witness; the bare certificate, on a fresh copy, gives its
    verdict; and both classifiers give the flag oracle's witness."""
    from oracles import minimality_witness_oracle

    for x in (m, m.dual()):
        for kind, verdict, classify in _MINIMALITY:
            want = minimality_witness_oracle(x, kind)
            assert verdict(_fresh(x)) == (want is None), (x, kind)
            res = _search(x, kind)
            assert (None if res.verdict else res.witness.subfamily) == want, (x, kind)
            res = classify(x)
            assert res.verdict == (want is None), (x, kind)
            _assert_flag_witness(x, kind, res)


def _assert_flag_witness(m, kind, res):
    """`res` is the flag oracle's answer for `kind` on m, and a false one's
    witness is a proper subfamily of the bases that validates as a base
    family with their union or intersection."""
    want = flag_witness_oracle(m, kind)
    got = None if res.verdict else res.witness.subfamily
    assert got == want, (m, kind)
    if got is not None:
        assert got.masks() < m.bases.masks(), (m, kind)
        Matroid.from_bases(m.ground, got)  # must validate
        if kind == "union":
            assert got.union() == m.support(), m
        else:
            assert got.intersection() == m.base_intersection(), m


def _fresh(m):
    """An equal matroid with none of m's kept facts."""
    return Matroid.from_bases(m.ground, m.bases)


def _search(m, kind):
    """The exhaustive minimality search alone, on a fresh copy of m."""
    return _minimality_search(_fresh(m), kind)


_cache = {}


def _population(n):
    if n not in _cache:
        _cache[n] = [m for k in range(1, n + 1) for m in enumerate_matroids(k)]
    return _cache[n]


def _rank_positive(n):
    return [m for m in _population(n) if m.rank > 0]
