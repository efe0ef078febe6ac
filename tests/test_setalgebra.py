import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    Partition,
    SetFamily,
    Subset,
    all_partitions,
    combination_number,
    complements,
    is_covering,
    is_partition,
    low,
    maximal,
    one_per_block,
    transversals,
)
from matroidlab.errors import GroundSetTooLarge
from matroidlab.setalgebra import (
    _BYTE_RANK,
    _BYTE_UNRANK,
    _bit_indices,
    _disjoint_union,
    _partition_masks,
    _single_bits,
    _submasks,
    _transversal_masks,
    canonical_key,
    mask_order_key,
)

from oracles import (
    bit_indices_oracle,
    disjoint_union_oracle,
    labels_oracle,
    submasks_oracle,
    subset_of,
    subsets,
    transversal_count_oracle,
)


@pytest.fixture
def g3():
    return GroundSet("123")


def fam(ground, *label_sets):
    return SetFamily(ground, (ground.subset(*s) for s in label_sets))


class TestGroundSet:
    def test_labels_are_ordered_and_distinct(self):
        g = GroundSet(["a", "b", "c"])
        assert g.size == 3
        assert g.index("b") == 1
        assert g.label(2) == "c"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet(["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet([])

    def test_rejects_oversized(self):
        with pytest.raises(GroundSetTooLarge):
            GroundSet(str(i) for i in range(65))

    def test_64_elements_ok(self):
        g = GroundSet(str(i) for i in range(64))
        assert g.full().mask == (1 << 64) - 1

    def test_repr_lists_the_labels(self):
        assert repr(GroundSet(["pear", "1", "b"])) == "GroundSet(pear,1,b)"


class TestSubset:
    def test_membership_and_labels(self, g3):
        s = g3.subset("1", "3")
        assert "1" in s and "3" in s and "2" not in s
        assert s.labels() == ("1", "3")
        assert len(s) == 2

    def test_canonical_order_is_cardinality_then_index_lex(self, g3):
        g = GroundSet("1234")
        by_key = sorted(
            [g.subset("1", "4"), g.subset("2", "3"), g.subset("2")],
            key=lambda s: s.sort_key,
        )
        assert by_key == [g.subset("2"), g.subset("1", "4"), g.subset("2", "3")]

    def test_set_operations(self, g3):
        a, b = g3.subset("1", "2"), g3.subset("2", "3")
        assert (a | b) == g3.full()
        assert (a & b) == g3.subset("2")
        assert (a - b) == g3.subset("1")

    def test_cross_ground_ops_rejected(self, g3):
        other = GroundSet("12")
        with pytest.raises(ValueError):
            g3.subset("1") | other.subset("1")

    def test_truth_is_nonemptiness(self, g3):
        assert not g3.empty()
        assert g3.subset("2")
        assert [bool(x) for x in g3.all_subsets()] == [False] + [True] * 7


def _random_masks(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(count)]


class TestBitIndices:
    """Masks below 256 are read from a table, larger ones from it a byte at a
    time; both must agree with testing every bit position."""

    @pytest.mark.parametrize(
        "masks",
        [
            pytest.param(range(1 << 12), id="below-2^12"),
            pytest.param([1 << 63, (1 << 64) - 1], id="top-64-bit"),
            pytest.param(_random_masks(12, 1000), id="random-64-bit"),
        ],
    )
    def test_matches_the_per_bit_reference(self, masks):
        for mask in masks:
            assert _bit_indices(mask) == bit_indices_oracle(mask)

    def test_canonical_key_orders_like_the_reference_key(self):
        masks = range(1 << 10)
        assert sorted(masks, key=canonical_key) == sorted(
            masks, key=lambda m: (m.bit_count(), bit_indices_oracle(m))
        )

    @pytest.mark.parametrize("mask", [-1, -5, -300])
    def test_negative_mask_rejected(self, mask):
        # a negative index reads the byte table from its end, or past it
        with pytest.raises(ValueError, match="negative mask"):
            _bit_indices(mask)
        with pytest.raises(ValueError, match="negative mask"):
            canonical_key(mask)

    def test_canonical_key_matches_the_reference_key(self):
        for mask in [*range(1 << 10), 1 << 63]:
            assert canonical_key(mask) == (mask.bit_count(), bit_indices_oracle(mask))


class TestSingleBits:
    """`_single_bits` reads masks below 256 from a table and shifts the bit
    indices of larger ones; both must give `1 << i` for each bit index."""

    @pytest.mark.parametrize(
        "masks",
        [
            pytest.param(range(1 << 10), id="below-2^10"),
            pytest.param([1 << 63, (1 << 64) - 1], id="top-64-bit"),
            pytest.param(_random_masks(10, 1000), id="random-64-bit"),
        ],
    )
    def test_matches_the_bit_indices(self, masks):
        for mask in masks:
            assert _single_bits(mask) == tuple(1 << i for i in _bit_indices(mask))

    @pytest.mark.parametrize("mask", [-1, -5, -300])
    def test_negative_mask_rejected(self, mask):
        # the text of _bit_indices: the table would be read from its end,
        # and a negative int has infinitely many set bits
        with pytest.raises(ValueError, match="negative mask"):
            _single_bits(mask)


# blocks of up to three of 64 elements, empty ones included, so that lists of
# them are often disjoint and often not
_blocks = st.frozensets(st.integers(0, 63), max_size=3).map(
    lambda block: sum(1 << i for i in block)
)


class TestDisjointUnion:
    """The one partition pass: the union of the masks, or None when a block
    is empty or two blocks overlap."""

    @pytest.mark.parametrize(
        "masks, union",
        [
            ([], 0),
            ([0], None),
            ([0b11, 0], None),
            ([1, 1], None),
            ([0b110, 0b011], None),
            ([1 << 63, 1, 0b110], (1 << 63) | 0b111),
            ([(1 << 64) - 1], (1 << 64) - 1),
        ],
    )
    def test_known_cases(self, masks, union):
        assert _disjoint_union(masks) == union == disjoint_union_oracle(masks)

    @given(st.lists(_blocks, max_size=8), st.data())
    @settings(max_examples=300)
    def test_matches_the_pairwise_oracle(self, masks, data):
        if masks and data.draw(st.booleans()):
            # a repeated block, at any position
            at = data.draw(st.integers(0, len(masks)))
            masks = masks[:at] + [data.draw(st.sampled_from(masks))] + masks[at:]
        assert _disjoint_union(masks) == disjoint_union_oracle(masks)


class TestSubmasks:
    """The one submask walk, from the mask itself down to 0."""

    @given(st.integers(0, (1 << 12) - 1))
    @settings(max_examples=300)
    def test_matches_the_filter_over_every_smaller_mask(self, mask):
        assert list(_submasks(mask)) == submasks_oracle(mask)


class TestByteRank:
    """Up to 8 elements families sort by the byte table of canonical
    positions, past it by an int key of the reversed bits; both must give the
    order of `canonical_key`."""

    def test_table_orders_like_canonical_key(self):
        assert sorted(_BYTE_RANK) == list(range(256))
        assert sorted(range(256), key=_BYTE_RANK.__getitem__) == sorted(
            range(256), key=canonical_key
        )

    def test_unrank_inverts_the_table(self):
        # the enumerator reads positions back to masks through the inverse
        assert sorted(_BYTE_UNRANK) == list(range(256))
        assert [_BYTE_UNRANK[_BYTE_RANK[mask]] for mask in range(256)] == list(range(256))
        assert [_BYTE_RANK[_BYTE_UNRANK[p]] for p in range(256)] == list(range(256))

    def test_wide_key_orders_like_canonical_key_at_every_size(self):
        # past 8 elements the key is an int built from the reversed bits;
        # seeded masks of every size, with the empty set, the full set and
        # the singletons, must sort as the definition does, and read the
        # same bit indices as the per-bit reference
        for n in range(9, 65):
            rng = random.Random(2900 + n)
            masks = [rng.getrandbits(n) for _ in range(200)]
            masks += [0, (1 << n) - 1, *(1 << i for i in range(n))]
            key = mask_order_key(n)
            assert sorted(masks, key=key) == sorted(masks, key=canonical_key), n
            for mask in masks:
                assert _bit_indices(mask) == bit_indices_oracle(mask)

    @pytest.mark.parametrize("n", [9, 64])
    def test_wide_family_order_and_labels(self, n):
        ground = GroundSet(f"e{i}" for i in range(n))
        rng = random.Random(1800 + n)
        masks = {rng.getrandbits(n) for _ in range(300)} | {0, 1, 255, 256}
        family = SetFamily.from_masks(ground, masks)
        assert [s.mask for s in family] == sorted(masks, key=canonical_key)
        for s in family:
            assert s.labels() == tuple(f"e{i}" for i in bit_indices_oracle(s.mask))

    @pytest.mark.parametrize("n", [3, 8, 9, 64])
    def test_out_of_range_mask_rejected_before_sorting(self, n):
        # on the table path a negative mask would read the table from its
        # end and a mask of 256 or more would index past it
        ground = GroundSet(str(i) for i in range(n))
        for bad in (-1, -300, 1 << n, 1 << max(n, 8)):
            for masks in ([bad], [0, 1, bad]):
                with pytest.raises(ValueError, match="outside the ground set"):
                    SetFamily.from_masks(ground, masks)


def _grounds_and_masks():
    """Grounds of 3, 8, 9 and 64 elements with every mask below 512 that
    fits, plus random wide masks on the larger two."""
    for n in (3, 8, 9, 64):
        masks = list(range(min(1 << n, 512)))
        if n > 9:
            rng = random.Random(1900 + n)
            masks += [rng.getrandbits(n) for _ in range(300)] + [(1 << n) - 1]
        yield pytest.param(n, masks, id=f"n={n}")


class TestLabelMemo:
    """Each ground set renders a mask below 256 once and reads it back from a
    memo; whatever the memo holds, labels, repr and iteration must agree with
    labels rebuilt from the bit indices."""

    @pytest.mark.parametrize("n,masks", _grounds_and_masks())
    def test_labels_repr_and_iteration_match_the_oracle(self, n, masks):
        ground = GroundSet(f"e{i}" for i in range(n))
        # twice: the first pass fills the memo, the second reads it
        for _ in range(2):
            for mask in masks:
                s = Subset(ground, mask)
                want = labels_oracle(ground, mask)
                assert s.labels() == want
                assert list(s) == list(want)
                assert repr(s) == "{" + ",".join(want) + "}"

    @pytest.mark.parametrize("n,masks", _grounds_and_masks())
    def test_memo_holds_only_masks_below_256(self, n, masks):
        ground = GroundSet(f"e{i}" for i in range(n))
        assert ground._rendered == {}
        for mask in masks:
            Subset(ground, mask).labels()
        assert len(ground._rendered) <= 256
        assert set(ground._rendered) == {m for m in masks if m < 256}

    def test_memo_is_per_ground_and_invisible(self):
        # equal grounds with different labels-to-render histories stay equal,
        # and a ground with other labels renders the same mask its own way
        a, b = GroundSet("xyz"), GroundSet("xyz")
        assert a.subset("x", "z").labels() == ("x", "z")
        assert a == b and hash(a) == hash(b)
        assert Subset(a, 0b101) == Subset(b, 0b101)
        assert b._rendered == {}
        assert Subset(GroundSet("pqr"), 0b101).labels() == ("p", "r")


class TestFamilyMembers:
    """`_fill` builds its members without the `Subset` constructor's check,
    after checking every mask at once."""

    @pytest.mark.parametrize("n,masks", _grounds_and_masks())
    def test_members_equal_and_hash_like_constructed_subsets(self, n, masks):
        ground = GroundSet(f"e{i}" for i in range(n))
        family = SetFamily.from_masks(ground, masks)
        for member in family:
            built = Subset(ground, member.mask)
            assert type(member) is Subset
            assert member.ground is ground
            assert member == built and hash(member) == hash(built)
        assert [s.mask for s in family] == sorted(set(masks), key=canonical_key)

    @pytest.mark.parametrize("n", [3, 8, 9, 64])
    def test_out_of_range_masks_still_raise(self, n):
        ground = GroundSet(str(i) for i in range(n))
        for bad in (-1, -(1 << 70), 1 << n, (1 << (n + 1)) - 1):
            with pytest.raises(ValueError, match="outside the ground set"):
                Subset(ground, bad)
            with pytest.raises(ValueError, match="outside the ground set"):
                SetFamily.from_masks(ground, [0, bad])


class TestFamily:
    def test_dedup_and_canonical_order(self, g3):
        f = fam(g3, "23", "1", "23", "")
        assert [s.labels() for s in f] == [(), ("1",), ("2", "3")]
        assert len(f) == 3

    def test_equal_families_serialize_identically(self, g3):
        a = fam(g3, "12", "13")
        b = fam(g3, "13", "12")
        assert a == b
        assert repr(a) == repr(b) == "{{1,2},{1,3}}"

    @pytest.mark.parametrize("masks", [
        [0b110, 0b001, 0b110, 0],
        [7, 6, 5, 4, 3, 2, 1, 0],
        [],
    ])
    def test_from_masks_matches_the_subset_constructor(self, g3, masks):
        expected = SetFamily(g3, map(g3.from_mask, masks))
        # the list, and a one-shot generator over it
        for source in (masks, (m for m in masks)):
            built = SetFamily.from_masks(g3, source)
            assert built == expected
            assert repr(built) == repr(expected)

    def test_intersection_of_an_empty_family_is_undefined(self, g3):
        assert fam(g3, "12", "13").intersection() == g3.subset("1")
        with pytest.raises(ValueError, match="^intersection of an empty family is undefined$"):
            fam(g3).intersection()

    @pytest.mark.parametrize("mask", [0b1000, 1 << 40, -1, -(1 << 12)])
    def test_from_masks_rejects_bits_outside_the_ground_set(self, g3, mask):
        with pytest.raises(ValueError, match="mask has bits outside the ground set"):
            SetFamily.from_masks(g3, [0b001, mask])


class TestLowMaxCom:
    def test_low_enumerated_by_containment(self, g3):
        # oracle: filter all 2^3 subsets by containment in a member
        f = fam(g3, "12", "13")
        members = list(g3.all_subsets())
        expected = SetFamily(
            g3, [x for x in members if any(x.mask & ~a.mask == 0 for a in f)]
        )
        assert low(f) == expected
        assert low(f) == fam(g3, "", "1", "2", "3", "12", "13")

    def test_low_of_empty_family_is_empty(self, g3):
        assert low(fam(g3)) == fam(g3)

    def test_low_of_empty_set_is_itself(self, g3):
        assert low(fam(g3, "")) == fam(g3, "")

    def test_max_by_brute_force_over_low(self, g3):
        f = low(fam(g3, "12", "13"))
        members = f.sets
        expected = SetFamily(
            g3,
            [x for x in members
             if not any(x != y and x.mask & ~y.mask == 0 for y in members)],
        )
        assert maximal(f) == expected == fam(g3, "12", "13")

    def test_max_single_empty_set(self, g3):
        assert maximal(fam(g3, "")) == fam(g3, "")

    def test_max_drops_strict_subsets(self, g3):
        assert maximal(fam(g3, "1", "12")) == fam(g3, "12")

    def test_com_of_members(self, g3):
        assert complements(fam(g3, "12", "13")) == fam(g3, "3", "2")

    def test_com_is_involution(self, g3):
        f = fam(g3, "", "2", "13")
        assert complements(complements(f)) == f

    def test_com_of_empty_family(self, g3):
        assert complements(fam(g3)) == fam(g3)


class TestCoveringPartition:
    def test_covering_with_overlap(self, g3):
        assert is_covering(fam(g3, "12", "13", "23"), g3.full())

    def test_covering_by_disjoint_blocks(self, g3):
        assert is_covering(fam(g3, "1", "23"), g3.full())

    def test_not_covering_when_union_short(self):
        g = GroundSet("12")
        assert not is_covering(fam(g, "1"), g.full())

    def test_empty_set_member_never_covers(self, g3):
        assert not is_covering(fam(g3, "", "12", "3"), g3.full())

    def test_partition_true(self, g3):
        assert is_partition(fam(g3, "1", "23"), g3.full())

    def test_overlapping_blocks_are_no_partition(self, g3):
        assert not is_partition(fam(g3, "12", "13", "23"), g3.full())

    def test_empty_family_partitions_empty_support(self, g3):
        assert is_partition(fam(g3), g3.empty())
        assert not is_partition(fam(g3), g3.full())

    def test_partition_value_rejects_overlap(self, g3):
        with pytest.raises(ValueError):
            Partition(fam(g3, "12", "13", "23"))

    def test_partition_of_subset_of_ground(self, g3):
        p = Partition(fam(g3, "2", "3"))
        assert p.support() == g3.subset("2", "3")

    def test_partition_repr_names_its_blocks(self, g3):
        assert repr(Partition(fam(g3, "23", "1"))) == "Partition({{1},{2,3}})"


class TestCombinationNumber:
    def test_small(self, g3):
        assert combination_number(Partition(fam(g3, "1", "23"))) == 2

    def test_all_singletons(self, g3):
        assert combination_number(Partition(fam(g3, "1", "2", "3"))) == 1

    def test_counts_transversals(self):
        g = GroundSet("12345")
        p = Partition(fam(g, "12", "345"))
        assert combination_number(p) == 6 == len(transversals(p))
        assert combination_number(p) == transversal_count_oracle(list(p))

    def test_empty_partition(self, g3):
        p = Partition(fam(g3))
        assert combination_number(p) == 1
        assert transversals(p) == fam(g3, "")


class TestAllPartitions:
    @pytest.mark.parametrize("size,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_counts(self, size, bell):
        g = GroundSet("12345")
        support = subset_of(g, range(size))
        parts = list(all_partitions(support))
        assert len(parts) == bell
        assert len(set(parts)) == bell
        for p in parts:
            # the union the constructor kept is the family's own
            assert p.support() == p.family.union() == support

    def test_walk_order_is_pinned(self):
        # the lowest element joins each block in turn, then opens its own; the
        # harness reports the first failing partition in this order
        g = GroundSet("abcd")
        assert [repr(p.family) for p in all_partitions(g.full())] == [
            "{{a,b,c,d}}", "{{a},{b,c,d}}", "{{b},{a,c,d}}", "{{a,b},{c,d}}",
            "{{a},{b},{c,d}}", "{{c},{a,b,d}}", "{{a,c},{b,d}}",
            "{{a},{c},{b,d}}", "{{a,d},{b,c}}", "{{d},{a,b,c}}",
            "{{a},{d},{b,c}}", "{{b},{c},{a,d}}", "{{b},{d},{a,c}}",
            "{{c},{d},{a,b}}", "{{a},{b},{c},{d}}",
        ]

    def test_sparse_support(self):
        # bits outside the support never enter a block
        g = GroundSet("12345")
        support = g.subset("2", "4", "5")
        parts = list(all_partitions(support))
        assert len(parts) == 5
        assert all(p.support() == support for p in parts)


class TestBoundedPartitionWalk:
    @staticmethod
    def _filtered(support, members, most):
        # the unbounded walk, keeping partitions within both bounds
        return [
            blocks for blocks in _partition_masks(support)
            if len(blocks) <= most
            and not any((x & k).bit_count() > 1 for x in members for k in blocks)
        ]

    @given(
        st.integers(min_value=0, max_value=(1 << 6) - 1),
        st.frozensets(st.integers(min_value=0, max_value=(1 << 7) - 1), max_size=5),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=200)
    def test_yields_the_unbounded_partitions_within_the_bounds(self, support, members, most):
        # members may hold bits outside the support; those bits never matter
        bounded = list(_partition_masks(support, members, most))
        assert bounded == self._filtered(support, members, most)

    def test_pinned_example(self):
        # bit 1 shares a member with bits 0 and 2, so it shares a block with
        # neither; at most two blocks leaves {1} + {0,2,3} and {1,3} + {0,2}
        support = 0b1111
        assert list(_partition_masks(support, [0b0011, 0b0110], 2)) == [
            [0b1101, 0b0010], [0b1010, 0b0101],
        ]


class TestOnePerBlock:
    def test_is_the_definitional_twin_of_transversals(self):
        # the support subsets meeting every block once are exactly the product
        g = GroundSet("12345")
        support = g.subset("1", "2", "3", "4")
        for p in list(all_partitions(support)) + [Partition(fam(g))]:
            passing = {
                x.mask for x in subsets(p.support()) if one_per_block((x.mask,), p.family.masks())
            }
            assert passing == transversals(p).masks()
            assert one_per_block(transversals(p).masks(), p.family.masks())

    def test_every_product_pick_meets_each_block_once(self):
        # the fact `thm_33` rests on: a partition the bases miss never
        # matches its product
        support = GroundSet("12345").full().mask
        partitions = list(_partition_masks(support))
        assert len(partitions) == 52
        for blocks in partitions:
            assert one_per_block(_transversal_masks(blocks), blocks)

    def test_one_miss_fails(self, g3):
        p = Partition(fam(g3, "1", "23"))
        assert not one_per_block([0b011, 0b110], p.family.masks())


# hypothesis strategies over small universes

@st.composite
def families(draw, max_n=5, max_members=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ground = GroundSet(str(i) for i in range(1, n + 1))
    masks = draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=max_members)
    )
    return SetFamily(ground, (Subset(ground, m) for m in masks))


@st.composite
def wide_families(draw):
    # mixed-size families on grounds of 1..64 elements, so the wide sort key
    # orders the reference past 8 elements
    n = draw(st.integers(min_value=1, max_value=64))
    ground = GroundSet(str(i) for i in range(1, n + 1))
    masks = draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12)
    )
    return SetFamily.from_masks(ground, masks)


class TestComplementOrder:
    """`complements` reverses the member order instead of sorting; the
    reference sorts the complement masks canonically."""

    @given(wide_families())
    def test_members_are_the_sorted_complements(self, f):
        full = (1 << f.ground.size) - 1
        expected = sorted((full ^ m for m in f.masks()), key=canonical_key)
        assert [s.mask for s in complements(f).sets] == expected

    @given(wide_families())
    def test_involution_keeps_the_member_order(self, f):
        twice = complements(complements(f))
        assert twice == f
        assert [s.mask for s in twice.sets] == [s.mask for s in f.sets]


class TestAlgebraicLaws:
    @given(families())
    def test_low_is_idempotent(self, f):
        assert low(low(f)) == low(f)

    @given(families(), st.data())
    def test_low_is_monotone(self, f, data):
        sub = SetFamily(
            f.ground,
            data.draw(st.lists(st.sampled_from(f.sets), unique=True)) if f.sets else (),
        )
        assert all(s in low(f).masks() for s in low(sub).masks())

    @given(families())
    def test_max_low_is_max(self, f):
        if f:
            assert maximal(low(f)) == maximal(f)

    @given(families())
    def test_com_involution(self, f):
        assert complements(complements(f)) == f

    @given(families())
    @settings(max_examples=60)
    def test_partition_implies_covering(self, f):
        support = f.union()
        if is_partition(f, support):
            assert is_covering(f, support)
