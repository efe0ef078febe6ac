import random
from itertools import combinations

import pytest

from matroidlab import (
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    enumerate_matroids,
    expansion,
    forming_family,
    forming_family_wrt,
    make_unique_partition_matroid,
    secondary_bases,
)
from matroidlab.errors import NotABase, RankZero
from matroidlab.forming import _forming_blocks
from matroidlab.matroid import expansion_masks

from oracles import expansion_oracle, subset_of


def fam(ground, *label_sets):
    return SetFamily(ground, (ground.subset(*s) for s in label_sets))


@pytest.fixture
def g3():
    return GroundSet("123")


@pytest.fixture
def nested(g3):
    return Matroid.from_bases(g3, fam(g3, "12", "13"))


@pytest.fixture
def uniform(g3):
    return Matroid.from_bases(g3, fam(g3, "12", "13", "23"))


class TestSecondaryBases:
    def test_one_below_rank(self, nested, g3):
        assert secondary_bases(nested) == fam(g3, "1", "2", "3")

    def test_rank_one_gives_empty_set(self):
        g = GroundSet("12")
        m = Matroid.from_bases(g, fam(g, "1", "2"))
        assert secondary_bases(m) == fam(g, "")

    def test_rank_zero_rejected(self, g3):
        m = Matroid.from_bases(g3, fam(g3, ""))
        with pytest.raises(RankZero):
            secondary_bases(m)

    def test_members_are_the_independents_of_size_rank_minus_one(self):
        for m in _rank_positive(4):
            expected = SetFamily(
                m.ground,
                (s for s in m.independents() if len(s) == m.rank - 1),
            )
            assert secondary_bases(m) == expected


class TestExpansion:
    def test_blocks_of_the_nested_pair(self, nested, g3):
        assert expansion(nested, g3.subset("1")) == g3.subset("2", "3")
        assert expansion(nested, g3.subset("2")) == g3.subset("1")

    def test_base_expands_to_nothing(self, nested, g3):
        assert expansion(nested, g3.subset("1", "2")) == g3.empty()

    def test_subset_from_another_ground_set_rejected(self, nested):
        with pytest.raises(ValueError, match="^subset lives on a different ground set$"):
            expansion(nested, GroundSet("1234").subset("1"))

    def test_disjoint_from_argument(self):
        for m in _population(3):
            for x in m.ground.all_subsets():
                assert (expansion(m, x) & x) == m.ground.empty()

    def test_matches_brute_force_oracle(self):
        for m in _population(4):
            for x in m.ground.all_subsets():
                assert expansion(m, x) == expansion_oracle(m, x)

    def test_matches_brute_force_oracle_past_the_byte_table(self):
        # past 8 elements families sort by `canonical_key`, and masks of 256
        # and up take `_bit_indices`' loop; seeded subsets of up to three
        # elements keep the oracle's subset scan small
        g10 = GroundSet(str(i) for i in range(10))
        u2_10 = Matroid.from_bases(
            g10, SetFamily(g10, (subset_of(g10, c) for c in combinations(range(10), 2)))
        )
        g12 = GroundSet(str(i) for i in range(12))
        bundles = _bundles(g12, range(3), range(3, 7), range(7, 11))
        g9 = GroundSet(str(i) for i in range(9))
        bundles_with_coloop = _bundles(g9, [0, 8], range(1, 5), [5], [6, 7])
        rng = random.Random(20261019)
        for m in (u2_10, bundles, bundles_with_coloop):
            n = m.ground.size
            for _ in range(60):
                x = subset_of(m.ground, rng.sample(range(n), rng.randint(0, 3)))
                assert expansion(m, x) == expansion_oracle(m, x)


class TestFormingFamily:
    def test_nested_pair(self, nested, g3):
        f = forming_family(nested)
        assert isinstance(f, SetFamily)
        assert f == fam(g3, "1", "23")
        assert len(f) == 2 == nested.rank

    def test_uniform_exceeds_rank(self, uniform, g3):
        f = forming_family(uniform)
        assert f == fam(g3, "12", "13", "23")
        assert len(f) == 3 > uniform.rank

    def test_one_per_block_matroid_recovers_partition(self):
        g = GroundSet("1234")
        p = Partition(fam(g, "12", "34"))
        m = make_unique_partition_matroid(g, p)
        assert forming_family(m) == p.family

    def test_rank_zero_rejected(self, g3):
        # on every call, validated or not, and with nothing kept in the memo
        message = "^secondary bases are undefined at rank zero$"
        for m in (Matroid.from_bases(g3, fam(g3, "")), Matroid._trusted(g3, fam(g3, ""))):
            for _ in range(2):
                with pytest.raises(RankZero, match=message):
                    forming_family(m)
            assert "forming_family" not in (m._facts or {})


class TestFormingFamilyWrt:
    def test_nested_pair_base(self, nested, g3):
        f = forming_family_wrt(nested, g3.subset("1", "2"))
        assert isinstance(f, SetFamily)
        assert f == fam(g3, "1", "23")

    def test_rank_one_single_support_block(self):
        g = GroundSet("12")
        m = Matroid.from_bases(g, fam(g, "1", "2"))
        f = forming_family_wrt(m, g.subset("1"))
        assert f == SetFamily(g, [m.support()])

    def test_uniform_base(self, uniform, g3):
        f = forming_family_wrt(uniform, g3.subset("1", "2"))
        assert f == fam(g3, "23", "13")
        assert len(f) == 2

    def test_not_a_base(self, nested, g3):
        with pytest.raises(NotABase):
            forming_family_wrt(nested, g3.subset("2", "3"))

    def test_rank_zero_rejected(self, g3):
        # before the membership probe, with the one rank-zero message
        m = Matroid.from_bases(g3, fam(g3, ""))
        message = "^secondary bases are undefined at rank zero$"
        with pytest.raises(RankZero, match=message):
            forming_family_wrt(m, g3.empty())
        with pytest.raises(RankZero, match=message):
            forming_family_wrt(m, g3.full())

    def test_the_walk_gives_every_base_its_family(self, monkeypatch):
        # `_forming_blocks` yields the base masks in canonical order, each with
        # one block per element by ascending index, and probes no membership
        def probe(family, s):
            raise AssertionError("the walk probed base membership")

        pop = _rank_positive(4)
        monkeypatch.setattr(SetFamily, "__contains__", probe)
        walks = [list(_forming_blocks(m)) for m in pop]
        monkeypatch.undo()
        for m, walked in zip(pop, walks):
            assert [m.ground.from_mask(b) for b, _ in walked] == list(m.bases)
            for mask, blocks in walked:
                b = m.ground.from_mask(mask)
                assert blocks == [
                    expansion(m, b - m.ground.subset(e)).mask for e in b
                ]
                family = SetFamily.from_masks(m.ground, blocks)
                assert family == forming_family_wrt(m, b)


class TestAgainstExpansionOperator:
    # the forming structures read expansion sets off the bases; `expansion`
    # derives them from ranks, so the two routes cross-check each other

    def test_expansion_masks_match_the_operator(self):
        for m in _rank_positive(5):
            exp = expansion_masks(m.bases.masks())
            secondaries = [s for s in m.independents() if len(s) == m.rank - 1]
            assert set(exp) == {a.mask for a in secondaries}
            for a in secondaries:
                assert exp[a.mask] == expansion(m, a).mask

    def test_forming_family_matches_the_operator(self):
        for m in _rank_positive(5):
            expected = SetFamily(m.ground, (expansion(m, a) for a in secondary_bases(m)))
            assert forming_family(m) == expected

    def test_relative_family_matches_the_operator(self):
        for m in _rank_positive(5):
            for b in m.bases:
                expected = SetFamily(m.ground, (
                    expansion(m, b - m.ground.subset(e)) for e in b
                ))
                assert forming_family_wrt(m, b) == expected


class TestInvariantsOverPopulation:
    def test_relative_families_sit_inside_the_global_one(self):
        for m in _rank_positive(4):
            global_blocks = forming_family(m).masks()
            for b in m.bases:
                assert forming_family_wrt(m, b).masks() <= global_blocks

    def test_relative_family_size_is_the_rank(self):
        for m in _rank_positive(4):
            for b in m.bases:
                assert len(forming_family_wrt(m, b)) == m.rank

    def test_unions_equal_base_support(self):
        for m in _rank_positive(4):
            support = m.support()
            assert forming_family(m).union() == support
            for b in m.bases:
                assert forming_family_wrt(m, b).union() == support

    def test_base_elements_hit_exactly_one_block(self):
        for m in _rank_positive(4):
            for b in m.bases:
                blocks = forming_family_wrt(m, b)
                for i in b.indices():
                    assert sum(1 for k in blocks if (k.mask >> i) & 1) == 1


def _bundles(ground, *blocks):
    """The direct sum of U(1, |block|) over `blocks`, by index; every
    element outside them is a loop."""
    blocks = SetFamily(ground, [subset_of(ground, b) for b in blocks])
    return make_unique_partition_matroid(ground, Partition(blocks))


_cache = {}


def _population(n):
    if n not in _cache:
        _cache[n] = [m for k in range(1, n + 1) for m in enumerate_matroids(k)]
    return _cache[n]


def _rank_positive(n):
    return [m for m in _population(n) if m.rank > 0]
