import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    all_partitions,
    are_isomorphic,
    complements,
    enumerate_matroids,
    forming_family,
    is_unique_exchange,
    is_unique_expansion,
    low,
    make_partition_matroid,
    make_unique_partition_matroid,
    maximal,
    recover_partition,
)
from matroidlab.errors import (
    AugmentationFailure,
    AxiomError,
    CapOutOfRange,
    EmptyFamily,
    ExchangeFailure,
    MissingEmptySet,
    NotDownwardClosed,
    ParseError,
    UnequalCardinality,
)
from matroidlab import matroid as matroid_module
from matroidlab.matroid import first_exchange_violation

from oracles import (
    exchange_scan_oracle,
    exchange_violation_oracle,
    independence_violation_oracle,
    is_independent,
    mixed_size_families,
    rank_oracle,
    subset_of,
    unique_exchange_oracle,
)


def fam(ground, *label_sets):
    return SetFamily(ground, (ground.subset(*s) for s in label_sets))


@pytest.fixture
def g3():
    return GroundSet("123")


@pytest.fixture
def g5():
    return GroundSet("12345")


@st.composite
def wide_families(draw):
    """A canonically ordered family on 9 or 10 elements, one of them the last,
    so masks reach 256 or more: the bases of a uniform matroid or of a
    one-per-block matroid (both pass) on a drawn support, with up to two
    members dropped and up to two drawn sets added (mostly failing then)."""
    n = draw(st.integers(min_value=9, max_value=10))
    support = [n - 1, *draw(st.lists(
        st.integers(min_value=0, max_value=n - 2), max_size=5, unique=True,
    ))]
    if draw(st.booleans()):
        r = draw(st.integers(min_value=1, max_value=len(support)))
        masks = {sum(1 << i for i in c) for c in combinations(support, r)}
    else:
        blocks = [0] * draw(st.integers(min_value=1, max_value=len(support)))
        for i in support:
            blocks[draw(st.integers(min_value=0, max_value=len(blocks) - 1))] |= 1 << i
        masks = {0}
        for block in filter(None, blocks):
            masks = {m | 1 << i for m in masks for i in range(n) if block >> i & 1}
    # the largest mask holds the last element and is never dropped
    droppable = sorted(masks)[:-1]
    dropped = set()
    if droppable:
        dropped = draw(st.sets(st.sampled_from(droppable), max_size=2))
    added = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=2))
    ground = GroundSet(str(i) for i in range(1, n + 1))
    family = SetFamily.from_masks(ground, (masks - dropped) | added)
    return [s.mask for s in family.sets]


class TestForeignInputs:
    """No bare constructor, and no family or subset from another ground set."""

    def test_bare_constructor_rejected(self):
        with pytest.raises(TypeError, match="^use Matroid.from_bases or Matroid.from_independents$"):
            Matroid()

    def test_family_from_another_ground_set_rejected(self, g3):
        other = GroundSet("1234")
        message = "^candidate family lives on a different ground set$"
        with pytest.raises(ValueError, match=message):
            Matroid.from_bases(g3, fam(other, "12", "13"))
        with pytest.raises(ValueError, match=message):
            Matroid.from_independents(g3, low(fam(other, "12", "13")))

    def test_subset_from_another_ground_set_rejected(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        with pytest.raises(ValueError, match="^subset lives on a different ground set$"):
            m.rank_of(GroundSet("1234").subset("1"))


class TestFromBases:
    def test_valid_rank_two(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        assert m.rank == 2
        assert m.bases == fam(g3, "12", "13")

    def test_valid_rank_three_on_five(self, g5):
        m = Matroid.from_bases(g5, fam(g5, "123", "124", "134", "125", "145"))
        assert m.rank == 3
        assert len(m.bases) == 5

    def test_empty_family(self, g3):
        with pytest.raises(EmptyFamily):
            Matroid.from_bases(g3, fam(g3))

    def test_unequal_cardinality_before_exchange(self, g3):
        with pytest.raises(UnequalCardinality) as exc:
            Matroid.from_bases(g3, fam(g3, "12", "3"))
        assert {exc.value.first, exc.value.second} == {g3.subset("3"), g3.subset("1", "2")}

    def test_exchange_failure_carries_canonical_witness(self):
        g = GroundSet("1234")
        with pytest.raises(ExchangeFailure) as exc:
            Matroid.from_bases(g, fam(g, "12", "34"))
        # scanning order: first ordered base pair, lowest removable element
        assert exc.value.base1 == g.subset("1", "2")
        assert exc.value.base2 == g.subset("3", "4")
        assert exc.value.element == "1"

    def test_rank_zero_supported(self, g3):
        m = Matroid.from_bases(g3, fam(g3, ""))
        assert m.rank == 0
        assert m.support() == g3.empty()

    def test_rank_zero_memo_keeps_the_seeded_empty_map(self, g3):
        # the map is seeded at every rank; at rank zero it is empty, and
        # reading it builds nothing new
        m = Matroid.from_bases(g3, fam(g3, ""))
        seeded = m._expansion_map()
        assert seeded == {}
        assert m._facts == {"expansions": seeded}
        assert m._expansion_map() is seeded

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_candidates_validate_or_witness(self, data):
        # a random equal-cardinality family validates exactly when the literal
        # axiom holds; otherwise the exchange witness is the canonically least
        # violation and replays against the definition: no replacement works
        n = data.draw(st.integers(min_value=2, max_value=5))
        r = data.draw(st.integers(min_value=1, max_value=n))
        ground = GroundSet(str(i) for i in range(1, n + 1))
        from itertools import combinations as _combos
        rsets = [subset_of(ground, c) for c in _combos(range(n), r)]
        members = data.draw(
            st.lists(st.sampled_from(rsets), min_size=1, unique=True)
        )
        candidate = SetFamily(ground, members)
        least = exchange_violation_oracle(candidate)
        try:
            m = Matroid.from_bases(ground, candidate)
        except ExchangeFailure as exc:
            assert (exc.base1, exc.base2, exc.element) == least
            stripped = exc.base1 - ground.subset(exc.element)
            repaired = [
                y for y in (exc.base2 - exc.base1).labels()
                if (stripped | ground.subset(y)) in candidate
            ]
            assert exc.element in exc.base1
            assert exc.element not in exc.base2
            assert repaired == []
        else:
            assert least is None
            assert m.bases == candidate

    def test_validator_matches_probe_scan_on_mixed_families(self):
        # the validator decides families of any shape; reading repairs off
        # the expansion map must name the probe's triple
        for m in mixed_size_families():
            masks = [b.mask for b in m.bases.sets]
            assert first_exchange_violation(masks) == exchange_scan_oracle(
                masks, frozenset(masks)
            ), m

    def test_passing_families_skip_the_pair_scan(self, monkeypatch):
        # the one pass decides a passing family; only a failing one is
        # scanned pair by pair for its least triple
        def scan(masks, exp, *, forked=False):
            raise AssertionError(f"pair scan on {masks}")

        monkeypatch.setattr(matroid_module, "_least_triple", scan)
        for m in enumerate_matroids(5):
            for family in (m.bases, complements(m.bases)):
                assert first_exchange_violation([b.mask for b in family.sets]) is None

    @settings(max_examples=300, deadline=None)
    @given(wide_families())
    def test_validator_matches_probe_scan_past_the_byte_table(self, masks):
        # passing and failing families on 9-10 elements, past the byte table;
        # the unique exchange scan walks the same triples on the same family
        assert max(masks) >= 256
        assert first_exchange_violation(masks) == exchange_scan_oracle(
            masks, frozenset(masks)
        )
        ground = GroundSet(str(i) for i in range(1, max(masks).bit_length() + 1))
        family = Matroid._trusted(ground, SetFamily.from_masks(ground, masks))
        w = is_unique_exchange(family).witness
        got = None if w is None else (w.base1, w.base2, w.removed, w.y1, w.y2)
        assert got == unique_exchange_oracle(family)


class TestFromIndependents:
    def test_low_of_bases_round_trips(self, g3):
        m = Matroid.from_independents(g3, low(fam(g3, "12", "13")))
        assert m.bases == fam(g3, "12", "13")

    def test_smallest_matroid(self):
        g = GroundSet("1")
        m = Matroid.from_independents(g, fam(g, ""))
        assert m.rank == 0
        assert m.bases == fam(g, "")

    def test_two_singleton_bases(self):
        g = GroundSet("12")
        m = Matroid.from_independents(g, fam(g, "", "1", "2"))
        assert m.rank == 1
        assert m.bases == fam(g, "1", "2")

    def test_missing_empty_set(self, g3):
        with pytest.raises(MissingEmptySet):
            Matroid.from_independents(g3, fam(g3, "1"))

    def test_not_downward_closed(self, g3):
        with pytest.raises(NotDownwardClosed) as exc:
            Matroid.from_independents(g3, fam(g3, "", "12"))
        assert exc.value.superset == g3.subset("1", "2")
        assert exc.value.subset == g3.subset("1")

    def test_augmentation_failure(self, g3):
        # {2} cannot grow toward {1,3}
        with pytest.raises(AugmentationFailure) as exc:
            Matroid.from_independents(g3, fam(g3, "", "1", "2", "3", "13"))
        assert exc.value.smaller == g3.subset("2")
        assert exc.value.larger == g3.subset("1", "3")

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_the_all_pairs_oracle(self, n):
        # downward closures of a few random sets (mostly failing), the same
        # with one member dropped (mostly not closed), random families, and
        # the independent sets of enumerated matroids (all passing)
        rng = random.Random(1400 + n)
        ground = GroundSet(str(i) for i in range(1, n + 1))
        families = []
        for _ in range(150):
            tops = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
            closed = low(SetFamily.from_masks(ground, tops))
            dropped = set(closed.masks()) - {rng.choice(sorted(closed.masks()))}
            families += [
                closed,
                SetFamily.from_masks(ground, dropped),
                SetFamily.from_masks(ground, [0, *rng.sample(range(1 << n), 4)]),
            ]
        matroids = list(enumerate_matroids(n))
        families += [m.independents() for m in rng.sample(matroids, min(40, len(matroids)))]
        witnesses = {
            NotDownwardClosed: lambda e: (e.superset, e.subset),
            AugmentationFailure: lambda e: (e.smaller, e.larger),
            MissingEmptySet: lambda e: (),
        }
        outcomes = Counter()
        for family in families:
            try:
                m = Matroid.from_independents(ground, family)
            except AxiomError as exc:
                got = type(exc), witnesses[type(exc)](exc)
            else:
                got = None
                assert m.bases == maximal(family), family
            assert got == independence_violation_oracle(family), family
            outcomes[got[0] if got else None] += 1
        assert set(outcomes) == {None, *witnesses}, outcomes

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_from_bases_on_population(self, data):
        ms = _population(3)
        m = data.draw(st.sampled_from(ms))
        indep = m.independents()
        rebuilt = Matroid.from_independents(m.ground, indep)
        assert rebuilt == Matroid.from_bases(m.ground, maximal(indep)) == m


class TestQueries:
    def test_is_independent(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        assert is_independent(m, g3.subset("3"))
        assert not is_independent(m, g3.subset("2", "3"))
        assert is_independent(m, g3.empty())

    def test_rank_of(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        assert m.rank_of(g3.subset("2", "3")) == 1
        assert m.rank_of(g3.empty()) == 0
        assert m.rank_of(g3.full()) == m.rank

    def test_rank_of_matches_oracle_everywhere(self):
        for m in _population(4):
            for x in m.ground.all_subsets():
                assert m.rank_of(x) == rank_oracle(m, x)

    def test_rank_is_monotone_unit_increment(self):
        for m in _population(3):
            for x in m.ground.all_subsets():
                r = m.rank_of(x)
                for i in range(m.ground.size):
                    grown = m.ground.from_mask(x.mask | (1 << i))
                    assert r <= m.rank_of(grown) <= r + 1


class TestDual:
    def test_complemented_bases(self):
        g = GroundSet("1234")
        m = Matroid.from_bases(g, fam(g, "12", "13", "14"))
        assert m.dual().bases == fam(g, "34", "24", "23")

    def test_rank_zero_dual_is_free(self, g3):
        m = Matroid.from_bases(g3, fam(g3, ""))
        assert m.dual().bases == SetFamily(g3, [g3.full()])
        assert m.dual().rank == 3

    def test_involution_and_rank_sum_over_population(self):
        for m in _population(4):
            d = m.dual()
            assert d.dual() == m
            assert m.rank + d.rank == m.ground.size
            assert d.bases == complements(m.bases)

    def test_dual_is_kept_without_a_back_pointer(self):
        # the dual is built once per matroid, and its memo does not point
        # back: the double dual is a new matroid equal to the original
        for m in _population(4):
            d = m.dual()
            assert m.dual() is d
            assert d.dual() == m
            assert d.dual() is not m

    def test_definition_route_agrees(self):
        # the dual's independence family is the downward closure of the
        # complemented bases; rebuilding through the independence axioms
        # must land on the same matroid
        for m in _population(3):
            rebuilt = Matroid.from_independents(m.ground, low(complements(m.bases)))
            assert rebuilt == m.dual()


class TestSixtyFourLabels:
    # one label per bit of a machine word: U(1,64) and its dual U(63,64)
    def test_uniform_pair_at_the_word_edge(self):
        g = GroundSet(str(i) for i in range(64))
        u1 = Matroid.from_bases(g, SetFamily(g, (subset_of(g, [i]) for i in range(64))))
        u63 = Matroid.from_bases(g, complements(u1.bases))
        assert u1.dual() == u63 and u63.dual() == u1
        assert u1.dual().dual() == u1 and u63.dual().dual() == u63
        assert len(forming_family(u1)) == 1
        assert len(forming_family(u63)) == 64 * 63 // 2
        assert recover_partition(u1) == Partition(SetFamily(g, [g.full()]))
        assert is_unique_exchange(u63).verdict
        assert not is_unique_expansion(u63).verdict


class TestPartitionMatroids:
    def test_capped_blocks_match_enumeration_filter(self, g5):
        p = Partition(fam(g5, "12", "345"))
        m = make_partition_matroid(g5, p, (1, 2))
        expected = {
            x.mask
            for x in g5.all_subsets()
            if x.mask & ~p.support().mask == 0
            and len(x & g5.subset("1", "2")) == 1
            and len(x & g5.subset("3", "4", "5")) == 2
        }
        assert m.bases.masks() == expected
        assert len(m.bases) == 6
        assert m.rank == 3
        # every partition of every subset of the ground, with every cap
        # vector, against the subsets of the support that meet each block
        # in exactly its cap of elements
        built = 0
        for support in g5.all_subsets():
            for p in all_partitions(support):
                for caps in product(*(range(len(b) + 1) for b in p)):
                    m = make_partition_matroid(g5, p, caps)
                    expected = {
                        x.mask
                        for x in g5.all_subsets()
                        if x.mask & ~support.mask == 0
                        and all(len(x & b) == c for b, c in zip(p, caps))
                    }
                    assert m.bases.masks() == expected
                    built += 1
        assert built == 2019

    def test_zero_caps_give_rank_zero(self, g5):
        p = Partition(fam(g5, "12", "345"))
        m = make_partition_matroid(g5, p, (0, 0))
        assert m.rank == 0

    def test_full_caps_give_single_base(self, g5):
        p = Partition(fam(g5, "12", "345"))
        m = make_partition_matroid(g5, p, (2, 3))
        assert m.bases == SetFamily(g5, [p.support()])

    def test_cap_out_of_range(self, g5):
        p = Partition(fam(g5, "12", "345"))
        with pytest.raises(CapOutOfRange):
            make_partition_matroid(g5, p, (3, 2))
        with pytest.raises(CapOutOfRange):
            make_partition_matroid(g5, p, (-1, 2))
        # caps follow canonical block order, so the first block named is {1,2}
        with pytest.raises(CapOutOfRange, match=r"^cap 3 out of range for block \{1,2\} of size 2$"):
            make_partition_matroid(g5, p, (3, 4))

    def test_cap_count_and_ground_are_checked(self, g5, g3):
        p = Partition(fam(g5, "12", "345"))
        with pytest.raises(ValueError, match="^1 caps for 2 blocks$"):
            make_partition_matroid(g5, p, (1,))
        with pytest.raises(ValueError, match="^blocks live on a different ground set$"):
            make_partition_matroid(g3, p, (1, 1))

    def test_independents_cap_elements_per_block(self, g5):
        p = Partition(fam(g5, "12", "345"))
        m = make_partition_matroid(g5, p, (1, 2))
        for x in g5.all_subsets():
            expected = (
                x.mask & ~p.support().mask == 0
                and len(x & g5.subset("1", "2")) <= 1
                and len(x & g5.subset("3", "4", "5")) <= 2
            )
            assert is_independent(m, x) == expected

    def test_one_per_block(self, g3):
        p = Partition(fam(g3, "1", "23"))
        m = make_unique_partition_matroid(g3, p)
        assert m.bases == fam(g3, "12", "13")

    def test_elements_outside_blocks_are_loops(self):
        g = GroundSet("1234")
        m = make_unique_partition_matroid(g, Partition(fam(g, "234")))
        assert m.bases == fam(g, "2", "3", "4")
        assert not is_independent(m, g.subset("1"))

    def test_singleton_blocks_single_base(self, g3):
        p = Partition(fam(g3, "1", "2", "3"))
        m = make_unique_partition_matroid(g3, p)
        assert m.bases == SetFamily(g3, [g3.full()])


class TestIsomorphism:
    def test_self(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        assert are_isomorphic(m, m)

    def test_relabeling(self):
        g = GroundSet("1234")
        a = Matroid.from_bases(g, fam(g, "12"))
        b = Matroid.from_bases(g, fam(g, "34"))
        assert are_isomorphic(a, b)

    def test_negative_pair_on_five(self, g5):
        a = Matroid.from_bases(g5, fam(g5, "12", "13", "14"))
        b = Matroid.from_bases(g5, fam(g5, "13", "14", "23", "24"))
        assert not are_isomorphic(a, b)

    def test_respects_base_counts(self, g3):
        a = Matroid.from_bases(g3, fam(g3, "12", "13"))
        b = Matroid.from_bases(g3, fam(g3, "12", "13", "23"))
        assert not are_isomorphic(a, b)

    def test_equal_counts_with_unequal_degrees(self):
        # rank 2 and three bases on four elements each, but element degrees
        # 3,1,1,1 against 2,2,2,0
        from oracles import isomorphic_oracle

        g = GroundSet("1234")
        a = Matroid.from_bases(g, fam(g, "12", "13", "14"))
        b = Matroid.from_bases(g, fam(g, "12", "13", "23"))
        assert not are_isomorphic(a, b)
        assert not isomorphic_oracle(a, b)

    def test_equal_degrees_with_no_bijection(self):
        # on n <= 7 rank, base count and degrees already tell every two
        # non-isomorphic matroids apart, so only families that are not
        # matroids reach the end of the bijection walk: the hexagon's edges
        # against two triangles', every element of degree 2
        from oracles import isomorphic_oracle

        g = GroundSet("123456")
        hexagon = Matroid._trusted(g, fam(g, "12", "23", "34", "45", "56", "16"))
        triangles = Matroid._trusted(g, fam(g, "12", "13", "23", "45", "46", "56"))
        assert not are_isomorphic(hexagon, triangles)
        assert not isomorphic_oracle(hexagon, triangles)
        assert are_isomorphic(hexagon, hexagon) and are_isomorphic(triangles, triangles)

    def test_isomorphism_is_invariant_under_relabeling(self):
        # relabel each n=3 matroid by a fixed permutation; must stay isomorphic
        perm = {"1": "3", "2": "1", "3": "2"}
        for m in enumerate_matroids(3):
            g = m.ground
            mapped = SetFamily(
                g, (g.subset(*(perm[lab] for lab in b.labels())) for b in m.bases)
            )
            assert are_isomorphic(m, Matroid.from_bases(g, mapped))

    def test_matches_unpruned_oracle_on_all_small_pairs(self):
        from oracles import isomorphic_oracle

        mats3 = list(enumerate_matroids(3))
        for a in mats3:
            for b in mats3:
                assert are_isomorphic(a, b) == isomorphic_oracle(a, b)


class TestDocuments:
    def test_round_trip(self, g3):
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        assert Matroid.from_doc(m.to_doc()) == m

    def test_to_doc_returns_fresh_lists(self, g3):
        # the label tuples are shared through the ground's memo; the lists
        # handed out must not be
        m = Matroid.from_bases(g3, fam(g3, "12", "13"))
        doc = m.to_doc()
        doc["bases"][0].append("3")
        doc["bases"][1].clear()
        doc["ground_set"].pop()
        assert m.to_doc() == {
            "ground_set": ["1", "2", "3"], "bases": [["1", "2"], ["1", "3"]],
        }
        assert [s.labels() for s in m.bases] == [("1", "2"), ("1", "3")]

    def test_independents_form_accepted(self):
        doc = {"ground_set": ["1", "2"], "independents": [[], ["1"], ["2"]]}
        m = Matroid.from_doc(doc)
        assert m.bases == fam(m.ground, "1", "2")

    def test_numeric_labels_stringified(self):
        m = Matroid.from_doc({"ground_set": [1, 2], "bases": [[1], [2]]})
        assert m.ground.labels == ("1", "2")

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"ground_set": []},
            {"ground_set": ["1"]},
            {"ground_set": ["1"], "bases": [[]], "independents": [[]]},
            {"ground_set": ["1"], "bases": "nope"},
            {"ground_set": ["1", "1"], "bases": [[]]},
            {"ground_set": ["1"], "bases": [["2"]]},
            # labels are strings or numbers, in the ground set and every row
            {"ground_set": [None, True], "bases": [[None]]},
            {"ground_set": ["1", True], "bases": [["1"]]},
            {"ground_set": ["1", 2], "bases": [["1"], [False]]},
            {"ground_set": [["a"]], "bases": [[]]},
            {"ground_set": ["a"], "bases": [[["a"]]]},
            {"ground_set": [{"a": 1}], "bases": [[]]},
            {"ground_set": ["1"], "independents": [[], [None]]},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ParseError):
            Matroid.from_doc(doc)

    def test_axiom_errors_pass_through(self):
        # the two members named are the first in canonical order and the
        # first of another size
        with pytest.raises(UnequalCardinality) as exc:
            Matroid.from_doc({"ground_set": ["1", "2", "3"], "bases": [["3"], ["1", "2"], ["2"]]})
        g = exc.value.first.ground
        assert (exc.value.first, exc.value.second) == (g.subset("2"), g.subset("1", "2"))
        assert str(exc.value) == "bases must share one cardinality: |{2}| = 1 but |{1,2}| = 2"

    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"ground_set": [None, True], "bases": [[None]]}, "null"),
            ({"ground_set": ["1", True], "bases": [["1"]]}, "true"),
            ({"ground_set": ["1"], "bases": [["1"], [False]]}, "false"),
            ({"ground_set": ["a"], "bases": [[["a"]]]}, '["a"]'),
            ({"ground_set": [{"a": 1}], "bases": [[]]}, '{"a": 1}'),
        ],
    )
    def test_label_of_another_type_is_named(self, doc, named):
        with pytest.raises(ParseError) as exc:
            Matroid.from_doc(doc)
        assert str(exc.value) == f"label {named} is neither a string nor a number"

    def test_label_outside_the_ground_set_is_named(self):
        with pytest.raises(ParseError) as exc:
            Matroid.from_doc({"ground_set": [1, 2], "bases": [[1], [2, 3]]})
        assert str(exc.value) == "set member not in ground set: label '3' not in ground set"


_pop_cache = {}


def _population(n):
    if n not in _pop_cache:
        _pop_cache[n] = [m for k in range(1, n + 1) for m in enumerate_matroids(k)]
    return _pop_cache[n]
