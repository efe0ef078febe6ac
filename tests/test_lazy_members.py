"""A family builds its `Subset` members only when someone iterates them.

`SetFamily` keeps its canonically ordered masks as one tuple; `sets` and
iteration build the members from it on first use and keep them.  The first
class checks that the built members match the masks on every constructor
path; the second counts member builds (a spy on `SetFamily.sets`) through a
full-registry sweep, the enumerator with `to_doc` and `analyze --json`, none
of which needs a member.
"""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    Subset,
    all_partitions,
    complements,
    enumerate_matroids,
    forming_family,
    low,
    make_partition_matroid,
    secondary_bases,
    transversals,
    verify,
)
from matroidlab.cli import main
from matroidlab.errors import CapOutOfRange, UnequalCardinality
from matroidlab.setalgebra import canonical_key


@st.composite
def ground_and_masks(draw, max_n=64):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ground = GroundSet(str(i) for i in range(1, n + 1))
    masks = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12))
    return ground, masks


def assert_lazy(f: SetFamily) -> None:
    """The mask-only operations build no member; the members, once built,
    are the canonical masks in order, and a second read returns them again."""
    other = SetFamily.from_masks(f.ground, f.masks())
    assert len(f) == len(f.masks())
    assert bool(f) == bool(f.masks())
    assert f == other and hash(f) == hash(other)
    f.union()
    if f:
        f.intersection()
    assert (Subset(f.ground, 0) in f) == (0 in f.masks())
    assert f._sets is None
    members = f.sets
    assert [s.mask for s in members] == list(f._order)
    assert list(f._order) == sorted(f.masks(), key=canonical_key)
    assert all(s.ground is f.ground for s in members)
    assert f.sets is members
    assert tuple(f) == members


class TestLazyMembers:
    @given(ground_and_masks())
    def test_constructors(self, drawn):
        ground, masks = drawn
        assert_lazy(SetFamily(ground, [Subset(ground, m) for m in masks]))
        assert_lazy(SetFamily.from_masks(ground, masks))
        assert_lazy(SetFamily._from_canonical(ground, sorted(masks, key=canonical_key)))
        assert_lazy(complements(SetFamily.from_masks(ground, masks)))

    @given(ground_and_masks(max_n=6))
    def test_low(self, drawn):
        assert_lazy(low(SetFamily.from_masks(*drawn)))

    def test_transversals(self):
        ground = GroundSet("12345")
        for p in all_partitions(ground.full()):
            assert_lazy(transversals(p))
        assert_lazy(transversals(Partition(SetFamily(ground))))

    def test_secondary_bases(self):
        for n in range(1, 5):
            for m in enumerate_matroids(n):
                if m.rank > 0:
                    assert_lazy(secondary_bases(m))

    def test_unequal_cardinality_names_its_bases(self):
        g = GroundSet("1234")
        bases = SetFamily(g, [g.subset("1", "2"), g.subset("3"), g.subset("2", "4")])
        with pytest.raises(UnequalCardinality) as info:
            Matroid.from_bases(g, bases)
        assert str(info.value) == "bases must share one cardinality: |{3}| = 1 but |{1,2}| = 2"
        assert (info.value.first, info.value.second) == (g.subset("3"), g.subset("1", "2"))

    @pytest.mark.parametrize("caps,text", [
        ((3, 1), "cap 3 out of range for block {3} of size 1"),
        ((1, -1), "cap -1 out of range for block {1,2} of size 2"),
    ])
    def test_cap_out_of_range_names_its_block(self, caps, text):
        g = GroundSet("1234")
        p = Partition(SetFamily(g, [g.subset("1", "2"), g.subset("3")]))
        with pytest.raises(CapOutOfRange) as info:
            make_partition_matroid(g, p, caps)
        assert str(info.value) == text


@pytest.fixture
def built(monkeypatch):
    """The families whose members are built while the test runs."""
    families = []
    real = SetFamily.sets.fget

    def spied(f):
        if f._sets is None:
            families.append(f)
        return real(f)

    monkeypatch.setattr(SetFamily, "sets", property(spied))
    return families


class TestNoMemberBuilds:
    def test_full_registry_sweep(self, built):
        pop = [m for n in range(1, 6) for m in enumerate_matroids(n)]
        assert verify(pop).failures == 0
        assert built == []
        # the sweep reached the memoized duals and the derived constructions,
        # and none of their families was built either
        derived = [
            m._facts[key] for m in pop
            for key in ("dual", "one_per_block_matroid", "capped_matroid") if key in m._facts
        ]
        assert sum(m._facts.get("dual") is not None for m in pop) == len(pop) == 497
        assert len(derived) > 2 * len(pop)
        families = [x.bases for x in pop + derived]
        families += [forming_family(m) for m in pop if m.rank > 0]
        assert all(f._sets is None for f in families)

    def test_enumerate_to_doc(self, built):
        docs = [m.to_doc() for m in enumerate_matroids(6)]
        assert len(docs) == 3807
        assert built == []

    def test_analyze_json(self, built, capsys, tmp_path):
        docs = [m.to_doc() for n in range(1, 5) for m in enumerate_matroids(n)]
        labels = [str(i) for i in range(1, 13)]
        docs += [
            # the downward closure of U(2,4), through `from_independents`
            {"ground_set": list("1234"),
             "independents": [list(c) for k in range(3) for c in itertools.combinations("1234", k)]},
            # U(2,9), past 8 elements, with false verdicts
            {"ground_set": labels[:9], "bases": [list(c) for c in itertools.combinations(labels[:9], 2)]},
            # a 12-element one-per-block matroid with 2 loops
            {"ground_set": labels, "bases": [list(b) for b in itertools.product(labels[0:2], labels[2:10])]},
        ]
        path = tmp_path / "m.json"
        for doc in docs:
            path.write_text(json.dumps(doc))
            assert main(["analyze", str(path), "--json"]) == 0
        capsys.readouterr()
        assert built == []
