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
    combination_number,
    enumerate_matroids,
    forming_family,
    intersection_minimal,
    is_intersection_minimal,
    is_partition,
    is_transversal_of,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    make_unique_partition_matroid,
    recover_partition,
    transversals,
    union_minimal,
)
from matroidlab import classify as classify_module
from matroidlab.classify import _minimality_search
from matroidlab.errors import RankZero, SearchCapExceeded, SupportMismatch


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
        g, SetFamily(g, (g.subset_of(c) for c in combinations(range(size), rank)))
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
        # 21 bases, one past the cap of 20; U(1,21) is unique expansion, and
        # the cap still comes before the certificate, bare or with a witness
        for m in (uniform(2, 7), uniform(1, 21)):
            assert len(m.bases) == 21
            for _, verdict, classify in _MINIMALITY:
                for decide in (verdict, classify):
                    with pytest.raises(SearchCapExceeded):
                        decide(m)
        assert is_unique_expansion(uniform(1, 21)).verdict

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
        # direct subfamily search confirms: {{1},{2}} keeps the empty intersection
        assert res.witness.subfamily == fam(uniform3.ground, "1", "2")

    def test_cap_guard(self):
        with pytest.raises(SearchCapExceeded):
            is_intersection_minimal(uniform(2, 7))


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
        with pytest.raises(RankZero):
            recover_partition(mk("1", ""))

    def test_agrees_with_forming_family_partition_test(self):
        for m in _rank_positive(4):
            f = forming_family(m)
            expected = Partition(f) if is_partition(f, m.support()) else None
            assert recover_partition(m) == expected


class TestIsTransversalOf:
    def test_positive_and_count(self):
        m = mk("123", "12", "13")
        p = Partition(fam(m.ground, "1", "23"))
        assert is_transversal_of(m, p)
        assert len(m.bases) == 2 == combination_number(p)
        assert m.bases == transversals(p)

    def test_negative(self, uniform3):
        p = Partition(fam(uniform3.ground, "1", "23"))
        assert not is_transversal_of(uniform3, p)

    def test_one_per_block_matroid_always_passes(self):
        g = GroundSet("12345")
        p = Partition(fam(g, "12", "345"))
        m = make_unique_partition_matroid(g, p)
        assert is_transversal_of(m, p)

    def test_support_mismatch(self):
        m = mk("123", "12", "13")
        with pytest.raises(SupportMismatch):
            is_transversal_of(m, Partition(fam(m.ground, "1", "2")))


class TestAgainstDefinitionOracles:
    def test_minimality_matches_literal_quantification(self):
        from oracles import intersection_minimal_oracle, union_minimal_oracle

        for m in _population(4):
            assert is_union_minimal(m).verdict == union_minimal_oracle(m)
            assert is_intersection_minimal(m).verdict == intersection_minimal_oracle(m)

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
            blocks.append(g.subset_of(range(start, start + size)))
            start += size
        _assert_minimality_witnesses(
            make_unique_partition_matroid(g, Partition(SetFamily(g, blocks)))
        )

    def test_unique_expansion_matches_oracle_witness(self):
        from oracles import unique_expansion_oracle

        for m in _rank_positive(5):
            for x in (m, m.dual()):
                if x.rank == 0:
                    continue
                res = is_unique_expansion(x)
                w = res.witness
                got = None if w is None else (w.secondary, w.base, w.e1, w.e2)
                assert got == unique_expansion_oracle(x)

    def test_unique_exchange_matches_oracle_witness(self):
        from oracles import unique_exchange_oracle

        for m in _population(5):
            for x in (m, m.dual()):
                assert _exchange_witness(x) == unique_exchange_oracle(x)

    def test_unique_exchange_matches_oracle_on_mixed_families(self):
        # unvalidated families of mixed sizes, including those whose first
        # member is the empty set next to larger ones (rank zero, own map)
        from oracles import mixed_size_families, unique_exchange_oracle

        for family in mixed_size_families():
            assert _exchange_witness(family) == unique_exchange_oracle(family), family

    def test_minimality_search_takes_an_empty_first_member(self):
        # the first member of {{}, {1}} covers nothing, so the size bound
        # must not divide by its size
        g = GroundSet("12")
        family = Matroid._trusted(g, SetFamily(g, [g.subset(), g.subset("1")]))
        # {1} alone keeps the union {1}; {} alone keeps the intersection {}
        for kind, want in (("union", "1"), ("intersection", "")):
            res = _minimality_search(family, kind)
            assert res.witness.subfamily == fam(g, want), kind


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
        # the certificate, alone and with its witness, against the search, for
        # both kinds on every matroid with n <= 6 and its dual; the bare
        # certificate and each search run on a fresh object
        for m in _population(6):
            for x in (m, m.dual()):
                for kind, verdict, classify in _MINIMALITY:
                    want = _search(x, kind)
                    assert verdict(_fresh(x)) == want.verdict, (x, kind)
                    assert classify(x) == want, (x, kind)

    @pytest.mark.parametrize("classify, bases", [
        (is_union_minimal, ("12", "13", "23")),
        (is_intersection_minimal, ("1", "2", "3")),
    ])
    def test_a_false_verdict_without_witness_raises(self, monkeypatch, classify, bases):
        # U(2,3) is not union minimal and U(1,3) not intersection minimal; a
        # search that then finds no witness is a fault, raised without an assert
        monkeypatch.setattr(classify_module, "_least_reduction",
                            lambda m, kind, boundary: ClassificationResult(True, None))
        with pytest.raises(RuntimeError, match="finds no witness"):
            classify(mk("123", *bases))

    def test_minimality_duality(self):
        for m in _population(4):
            assert (
                is_union_minimal(m).verdict
                == is_intersection_minimal(m.dual()).verdict
            )


def _exchange_witness(m):
    res = is_unique_exchange(m)
    w = res.witness
    return None if w is None else (w.base1, w.base2, w.removed, w.y1, w.y2)


_MINIMALITY = (
    ("union", union_minimal, is_union_minimal),
    ("intersection", intersection_minimal, is_intersection_minimal),
)


def _assert_minimality_witnesses(m):
    """Both classifiers on m and its dual, and both searches run on fresh
    copies (so neither reads a kept result nor takes the certificate), give
    the plain scan's canonical witness; the bare certificate, on a fresh
    copy, gives its verdict."""
    from oracles import minimality_witness_oracle

    for x in (m, m.dual()):
        for kind, verdict, classify in _MINIMALITY:
            want = minimality_witness_oracle(x, kind)
            assert verdict(_fresh(x)) == (want is None), (x, kind)
            for res in (classify(x), _search(x, kind)):
                got = None if res.verdict else res.witness.subfamily
                assert got == want, (x, kind)


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
