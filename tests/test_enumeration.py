import pytest

from matroidlab import (
    Matroid,
    SetFamily,
    count_matroids,
    enumerate_matroids,
    enumeration_ground,
    is_unique_expansion,
)
from matroidlab import enumeration
from matroidlab.enumeration import (
    MAX_ENUMERATION_SIZE,
    _extensions,
    _families,
    _linear_subclasses,
)
from matroidlab.errors import GroundSetTooLarge
from matroidlab.setalgebra import _BYTE_RANK, _BYTE_UNRANK, mask_order_key

from one_per_block import one_per_block_matroids
from oracles import (
    all_antichain_matroids,
    exchange_scan_families,
    linear_subclasses_oracle,
)

# labeled matroids on n elements (OEIS A058673); TestAgainstOracle rederives
# them live, through the all-antichains oracle for n <= 5 and the exchange
# scan oracle for n <= 6; n = 7 rests on the published count alone
KNOWN_COUNTS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406, 6: 3807, 7: 75164}

# per-rank breakdown, same provenance
KNOWN_BY_RANK = {
    1: [1, 1],
    2: [1, 3, 1],
    3: [1, 7, 7, 1],
    4: [1, 15, 36, 15, 1],
    5: [1, 31, 171, 171, 31, 1],
    6: [1, 63, 813, 2053, 813, 63, 1],
    7: [1, 127, 4012, 33442, 33442, 4012, 127, 1],
}

# rank>0 unique expansion matroids on n elements, Bell(n+1) - 1: one per
# nonempty support and set partition of it
UNIQUE_EXPANSION_COUNTS = {1: 1, 2: 4, 3: 14, 4: 51, 5: 202, 6: 876}


class TestCounts:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_totals(self, n, count):
        assert count_matroids(n) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_by_rank(self, n):
        assert [count_matroids(n, rank=r) for r in range(n + 1)] == KNOWN_BY_RANK[n]

    def test_rank_counts_are_self_dual(self):
        # complementing bases maps rank r onto rank n - r bijectively
        for n, counts in KNOWN_BY_RANK.items():
            assert counts == counts[::-1]

    def test_out_of_range_rank_yields_nothing(self):
        assert count_matroids(3, rank=7) == 0
        assert count_matroids(3, rank=-1) == 0

    def test_counting_builds_no_family(self, monkeypatch):
        # counting reads the lengths of the cached mask families; from a cold
        # cache too, it wraps no family and builds no matroid
        def refuse(*args):
            raise AssertionError("counting built a family")

        monkeypatch.setattr(SetFamily, "from_masks", classmethod(refuse))
        monkeypatch.setattr(SetFamily, "_from_canonical", classmethod(refuse))
        monkeypatch.setattr(Matroid, "_trusted", classmethod(refuse))
        _families.cache_clear()
        assert {n: count_matroids(n) for n in KNOWN_COUNTS} == KNOWN_COUNTS
        for n, counts in KNOWN_BY_RANK.items():
            assert [count_matroids(n, rank=r) for r in range(n + 1)] == counts


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_all_antichains_oracle(self, n):
        # the oracle routes every candidate family through the validating
        # constructor; the enumerator uses its own bitmask exchange test
        ours = {m.bases.masks() for m in enumerate_matroids(n)}
        oracle = {m.bases.masks() for m in all_antichain_matroids(n)}
        assert ours == oracle
        assert len(ours) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_exchange_scan_oracle_in_order(self, n):
        # the same mask tuples in the same canonical order, rank by rank
        for r in range(n + 1):
            ours = [tuple(s.mask for s in m.bases) for m in enumerate_matroids(n, r)]
            assert ours == exchange_scan_families(n, r)


class TestOnePerBlockPopulation:
    @pytest.mark.parametrize("n,count", sorted(UNIQUE_EXPANSION_COUNTS.items()))
    def test_generator_yields_the_unique_expansion_matroids(self, n, count):
        # tests/one_per_block.py runs the registry on this generator's n=8
        # population; here it must give, once each, exactly the base families
        # that the enumerator and the classifier call rank>0 unique expansion,
        # so that population does not rest on thm_52 alone
        made = [m.bases.masks() for m in one_per_block_matroids(n)]
        enumerated = {
            m.bases.masks()
            for m in enumerate_matroids(n)
            if m.rank > 0 and is_unique_expansion(m)
        }
        assert len(made) == len(set(made)) == count
        assert set(made) == enumerated


class TestStreamProperties:
    def test_no_duplicates(self):
        for n in (1, 2, 3, 4):
            seen = list(enumerate_matroids(n))
            assert len(seen) == len(set(seen))

    def test_canonical_order(self):
        for n in (1, 2, 3, 4, 5, 6):
            keys = [(m.rank, m.bases.sort_key) for m in enumerate_matroids(n)]
            assert keys == sorted(keys)

    def test_cached_families_are_canonical(self):
        # the stream wraps each cached tuple as it stands, unsorted, so every
        # tuple must be duplicate-free and in canonical member order already
        for n in range(1, 7):
            key = mask_order_key(n)
            for families in _families(n):
                for fam in families:
                    assert len(set(fam)) == len(fam)
                    assert list(fam) == sorted(fam, key=key)

    def test_stable_across_runs(self):
        first = [m.bases.masks() for m in enumerate_matroids(4)]
        second = [m.bases.masks() for m in enumerate_matroids(4)]
        assert first == second

    def test_rank_filter(self):
        for m in enumerate_matroids(4, rank=2):
            assert m.rank == 2
        assert count_matroids(4, rank=2) == KNOWN_BY_RANK[4][2]

    def test_shared_ground_set(self):
        mats = list(enumerate_matroids(3))
        assert all(m.ground is mats[0].ground for m in mats)
        assert enumeration_ground(3).labels == ("1", "2", "3")

    def test_population_is_closed_under_duality(self):
        for n in (1, 2, 3, 4, 5, 6):
            population = {m.bases.masks() for m in enumerate_matroids(n)}
            for m in enumerate_matroids(n):
                assert m.dual().bases.masks() in population

    def test_every_yielded_family_validates(self):
        # the trusted fast path must only emit families from_bases would accept
        for n in (1, 2, 3, 4, 5, 6):
            for m in enumerate_matroids(n):
                assert Matroid.from_bases(m.ground, m.bases) == m

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rank_zero_extensions(self, n):
        # the new element as a coloop, then as a loop: the empty map of {}
        # has the one empty linear subclass, which adds no base; each family
        # comes as canonical positions, read back to masks
        read = [[_BYTE_UNRANK[p] for p in fam] for fam in _extensions((0,), 0, n)]
        assert read == [[1 << (n - 1)], [0]]

    def test_size_cap_fits_the_byte_table(self):
        # the build holds each member as its canonical position, which the
        # byte table has for every mask of at most 8 elements
        assert MAX_ENUMERATION_SIZE <= 8
        assert len(_BYTE_RANK) == len(_BYTE_UNRANK) == 1 << 8

    @pytest.mark.parametrize("n", [0, 8, -1])
    def test_size_guard(self, n):
        with pytest.raises(GroundSetTooLarge):
            list(enumerate_matroids(n))
        with pytest.raises(GroundSetTooLarge):
            count_matroids(n)
        with pytest.raises(GroundSetTooLarge):
            count_matroids(n, rank=0)


class TestLinearSubclasses:
    def test_match_the_rank_scan_oracle(self, monkeypatch):
        # the 497 matroids on at most 5 elements are the deletions behind
        # every extension up to n = 6: the hyperplanes `_extensions` hands
        # over must be the flats of rank r - 1, and the subclasses found must
        # be each linear subclass once
        population = [
            (bases, r, n)
            for n in range(1, 6)
            for r, families in enumerate(_families(n))
            for bases in families
        ]
        assert len(population) == 497
        calls = []

        def recorded(hyperplanes, r, bases):
            found = _linear_subclasses(hyperplanes, r, bases)
            calls.append((hyperplanes, found))
            return found

        monkeypatch.setattr(enumeration, "_linear_subclasses", recorded)
        for bases, r, n in population:
            calls.clear()
            list(_extensions(bases, r, n + 1))
            [(hyperplanes, found)] = calls
            want_hyperplanes, want_subclasses = linear_subclasses_oracle(bases, n)
            assert sorted(hyperplanes) == want_hyperplanes, bases
            got = [
                frozenset(h for k, h in enumerate(hyperplanes) if subclass >> k & 1)
                for subclass in found
            ]
            assert len(set(got)) == len(got), bases
            assert set(got) == want_subclasses, bases
