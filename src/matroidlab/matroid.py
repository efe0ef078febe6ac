"""Validated matroid values: axiom checking, rank, duality, partition constructors.

A matroid is represented by its ground set and its base family; the base
family is the single source of truth, and the independent sets are derived
from it on demand.  Construction always validates the defining axioms and
reports the canonically least witness on failure, so invalid values cannot
exist.

The expansion map (`expansion_masks`) is the one place that decides whether
a secondary base plus an element is a base: the exchange validator here, the
forming families, both unique-expansion and unique-exchange classifiers and
the enumerator's hyperplanes all read it.

Facts derived from the bases (the independent sets, the expansion map, the
forming family, the unique-expansion verdict, the recovered partition, the
union and intersection minimality results) are computed at most once per
matroid value and kept in its memo slot; since a matroid is immutable they
can never go stale.  A matroid built by `from_bases` (a dual included) is a
new value whose memo starts with the expansion map its exchange check built,
at positive rank, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, permutations, product
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import (
    AugmentationFailure,
    CapOutOfRange,
    EmptyFamily,
    ExchangeFailure,
    MissingEmptySet,
    NotDownwardClosed,
    ParseError,
    UnequalCardinality,
)
from .setalgebra import (
    GroundSet,
    Partition,
    SetFamily,
    Subset,
    complements,
    low,
    transversals,
)

T = TypeVar("T")

# the memo key of the expansion map, which `from_bases` seeds and
# `forming._expansions` reads
EXPANSIONS_FACT = "expansions"


def expansion_masks(base_masks: Iterable[int]) -> dict[int, int]:
    """Map each mask B - e to its expansion mask, the union of every such e
    over the members B; empty when the only member is empty.

    On a matroid the keys are the secondary bases, and A + e is a base exactly
    when e lies in the expansion mask of A.  The same holds for a family of
    any shape: for a key A, A + e is a member exactly when e is in its mask.
    """
    exp: dict[int, int] = {}
    for base in base_masks:
        rest = base
        while rest:
            bit = rest & -rest
            rest ^= bit
            exp[base ^ bit] = exp.get(base ^ bit, 0) | bit
    return exp


def first_exchange_violation(
    masks: Sequence[int], exp: dict[int, int] | None = None
) -> tuple[int, int, int] | None:
    """First (base1, base2, x) violating the base exchange requirement.

    `masks` must be in canonical order; the scan visits ordered base pairs in
    that order and removal candidates in ascending index order, so the
    returned triple is the canonically least violation.  The repairs of
    (base1, base2, x) are the bits of base2 in the expansion mask of
    base1 - x, for a family of any shape; `exp` is `expansion_masks(masks)`
    when the caller has built it already.  Returns None when the family
    satisfies the exchange requirement.
    """
    if exp is None:
        exp = expansion_masks(masks)
    for b1 in masks:
        for b2 in masks:
            rest = b1 & ~b2
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                if not exp[b1 ^ xbit] & b2:
                    return b1, b2, xbit.bit_length() - 1
    return None


class Matroid:
    """A validated (ground set, base family) pair."""

    __slots__ = ("ground", "bases", "rank", "_facts")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Matroid.from_bases or Matroid.from_independents")

    @classmethod
    def _trusted(cls, ground: GroundSet, bases: SetFamily) -> Matroid:
        # internal fast path for construction sites that have already validated
        self = object.__new__(cls)
        self.ground = ground
        self.bases = bases
        self.rank = len(bases.sets[0])
        self._facts = None
        return self

    def _fact(self, name: str, compute: Callable[[], T]) -> T:
        """The fact `name` of this matroid, computed by `compute` on first use.

        Values are kept for the life of the matroid, so they must not be
        mutated; `None` is kept like any other value.
        """
        facts = self._facts
        if facts is None:
            facts = self._facts = {}
        if name not in facts:
            facts[name] = compute()
        return facts[name]

    @classmethod
    def from_bases(cls, ground: GroundSet, candidate: SetFamily) -> Matroid:
        """Validate a candidate base family and build the matroid.

        Checks run in order: nonemptiness, equal cardinality (for a clearer
        message than a bare exchange failure), then the exchange requirement
        over every ordered pair of bases and every removable element.  At
        positive rank the expansion map that check builds seeds the new
        matroid's memo, where `forming` reads it.
        """
        if candidate.ground != ground:
            raise ValueError("candidate family lives on a different ground set")
        if not candidate:
            raise EmptyFamily("a base family must be nonempty")
        sets = candidate.sets
        first = sets[0]
        for other in sets[1:]:
            if len(other) != len(first):
                raise UnequalCardinality(first, other)
        masks = [s.mask for s in sets]
        exp = expansion_masks(masks)
        violation = first_exchange_violation(masks, exp)
        if violation is not None:
            b1, b2, x = violation
            raise ExchangeFailure(
                Subset(ground, b1), Subset(ground, b2), ground.label(x)
            )
        m = cls._trusted(ground, candidate)
        if m.rank:
            m._facts = {EXPANSIONS_FACT: exp}
        return m

    @classmethod
    def from_independents(cls, ground: GroundSet, indep: SetFamily) -> Matroid:
        """Validate an independence family and build the matroid from its largest sets.

        Checks run in order: the empty set, downward closure (the first member
        in canonical order with a missing subset, and its least missing
        subset), then augmentation.  Closure is tested only against each
        member's one-smaller subsets, yet finds the same first member: if a
        member I misses some subset S but none of its one-smaller subsets,
        one of those, J with S in J, is a member that precedes I and also
        misses S.  Augmentation is tested only against
        members one element larger, yet names the same canonically least
        failing pair (small, big) as a test over every pair: if `small`
        cannot grow inside a member `big` with |big| >= |small| + 2, it
        cannot grow inside any (|small| + 1)-subset J of `big` either, since
        J - small lies in big - small; and J is a member, by closure, that
        precedes `big`, being smaller.  Once augmentation holds, the bases
        are exactly the largest members: a smaller maximal member would grow
        against a one-larger subset of a largest one.  `from_bases` still
        validates them.
        """
        if indep.ground != ground:
            raise ValueError("candidate family lives on a different ground set")
        masks = indep.masks()
        if 0 not in masks:
            raise MissingEmptySet("the empty set must be independent")
        for member in indep:
            whole = rest = member.mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                if whole ^ bit not in masks:
                    raise NotDownwardClosed(member, min(
                        s for s in member.subsets() if s.mask not in masks
                    ))
        # canonical order is by size first, and a downward-closed family has
        # members of every size up to the largest: layers[k] holds size k
        layers = [list(run) for _, run in groupby(indep.sets, len)]
        for smaller, larger in zip(layers, layers[1:]):
            for small in smaller:
                s = small.mask
                for big in larger:
                    grow = big.mask & ~s
                    while grow:
                        bit = grow & -grow
                        if (s | bit) in masks:
                            break
                        grow ^= bit
                    else:
                        raise AugmentationFailure(small, big)
        return cls.from_bases(ground, SetFamily(ground, layers[-1]))

    def independents(self) -> SetFamily:
        """The full independence family (downward closure of the bases), cached."""
        return self._fact("independents", lambda: low(self.bases))

    def is_independent(self, x: Subset) -> bool:
        """True iff `x` is contained in some base."""
        if x.ground != self.ground:
            raise ValueError("subset lives on a different ground set")
        return any(x.mask & ~m == 0 for m in self.bases.masks())

    def rank_of(self, x: Subset) -> int:
        """Rank of `x`: the size of a largest independent subset of `x`.

        Equals max |B intersect x| over the bases, since every maximal
        independent subset of x extends to a base.
        """
        if x.ground != self.ground:
            raise ValueError("subset lives on a different ground set")
        return max((m & x.mask).bit_count() for m in self.bases.masks())

    def support(self) -> Subset:
        """Union of all bases."""
        return self.bases.union()

    def base_intersection(self) -> Subset:
        """Common intersection of all bases."""
        return self.bases.intersection()

    def dual(self) -> Matroid:
        """The matroid whose bases are the complements of this one's bases.

        Duality of a valid matroid always yields a valid matroid; validation
        still runs as a self-check.
        """
        return Matroid.from_bases(self.ground, complements(self.bases))

    def to_doc(self) -> dict:
        """Canonical JSON-ready document: ground set labels and base label lists."""
        return {
            "ground_set": list(self.ground.labels),
            "bases": [list(b.labels()) for b in self.bases],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> Matroid:
        """Parse a document with `ground_set` and exactly one of `bases`/`independents`.

        Labels may be given as numbers; they are stringified.  Schema problems
        raise ParseError; axiom violations surface unchanged.
        """
        if not isinstance(doc, dict):
            raise ParseError("document must be a JSON object")
        if "ground_set" not in doc:
            raise ParseError("document lacks 'ground_set'")
        if not isinstance(doc["ground_set"], list) or not doc["ground_set"]:
            raise ParseError("'ground_set' must be a nonempty list of labels")
        has_bases = "bases" in doc
        has_indep = "independents" in doc
        if has_bases == has_indep:
            raise ParseError("document must carry exactly one of 'bases' or 'independents'")
        key = "bases" if has_bases else "independents"
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError(f"'{key}' must be a list of label lists")
        try:
            ground = GroundSet(str(x) for x in doc["ground_set"])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        try:
            family = SetFamily(ground, (ground.subset(*map(str, r)) for r in rows))
        except KeyError as exc:
            raise ParseError(f"set member not in ground set: {exc.args[0]}") from None
        if has_bases:
            return cls.from_bases(ground, family)
        return cls.from_independents(ground, family)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(E={{{','.join(self.ground.labels)}}}, bases={self.bases!r})"


@dataclass(frozen=True)
class PartitionMatroidSpec:
    """Blocks with per-block caps; caps follow the partition's canonical block order."""

    blocks: Partition
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(self.caps))
        if len(self.caps) != len(self.blocks):
            raise ValueError(
                f"{len(self.caps)} caps for {len(self.blocks)} blocks"
            )
        for block, cap in zip(self.blocks, self.caps):
            if cap < 0 or cap > len(block):
                raise CapOutOfRange(
                    f"cap {cap} out of range for block {block} of size {len(block)}"
                )

    @classmethod
    def paired(cls, blocks: Sequence[Subset], caps: Sequence[int]) -> PartitionMatroidSpec:
        """Pair blocks with caps in the given order, then canonicalize together."""
        if len(blocks) != len(caps):
            raise ValueError(f"{len(caps)} caps for {len(blocks)} blocks")
        if not blocks:
            raise ValueError("at least one block is required")
        order = sorted(range(len(blocks)), key=lambda i: blocks[i].sort_key)
        partition = Partition(SetFamily(blocks[0].ground, blocks))
        if len(partition) != len(blocks):
            raise ValueError("duplicate blocks")
        return cls(partition, tuple(caps[i] for i in order))


def make_partition_matroid(ground: GroundSet, spec: PartitionMatroidSpec) -> Matroid:
    """Matroid whose independents pick at most cap_i elements from block_i.

    Elements outside the union of the blocks belong to no independent set
    (they behave like an extra block capped at zero), so a partition of a
    proper subset of the ground set is fine.  The bases are exactly the
    unions of one cap_i-subset per block.
    """
    if spec.blocks.ground != ground:
        raise ValueError("blocks live on a different ground set")
    masks = [0]
    for block, cap in zip(spec.blocks, spec.caps):
        picks = []
        for combo in combinations(block.indices(), cap):
            m = 0
            for i in combo:
                m |= 1 << i
            picks.append(m)
        masks = [m | p for m in masks for p in picks]
    return Matroid.from_bases(ground, SetFamily.from_masks(ground, masks))


def make_unique_partition_matroid(ground: GroundSet, p: Partition) -> Matroid:
    """Matroid whose bases are the transversals of `p`, one element per block.

    Built from the `transversals` product and validated by `from_bases`, not
    through `make_partition_matroid` with unit caps, so the harness can check
    that the two routes agree.
    """
    return Matroid.from_bases(ground, transversals(p))


def are_isomorphic(a: Matroid, b: Matroid) -> bool:
    """True iff some ground-set bijection maps the bases of `a` onto those of `b`.

    Brute force over bijections, pruned by ground size, rank, base count and
    the multiset of element degrees (number of bases containing an element);
    only degree-preserving assignments are tried.  Intended for small ground
    sets.
    """
    n = a.ground.size
    if n != b.ground.size or a.rank != b.rank or len(a.bases) != len(b.bases):
        return False

    def degrees(m: Matroid) -> list[int]:
        return [
            sum((mask >> i) & 1 for mask in m.bases.masks())
            for i in range(m.ground.size)
        ]

    deg_a, deg_b = degrees(a), degrees(b)
    if sorted(deg_a) != sorted(deg_b):
        return False

    groups_a: dict[int, list[int]] = {}
    groups_b: dict[int, list[int]] = {}
    for i, d in enumerate(deg_a):
        groups_a.setdefault(d, []).append(i)
    for i, d in enumerate(deg_b):
        groups_b.setdefault(d, []).append(i)

    target = b.bases.masks()
    base_masks = [s.mask for s in a.bases]
    degrees_sorted = sorted(groups_a)
    for assignment in product(
        *(permutations(groups_b[d]) for d in degrees_sorted)
    ):
        perm = [0] * n
        for d, images in zip(degrees_sorted, assignment):
            for src, dst in zip(groups_a[d], images):
                perm[src] = dst
        mapped = set()
        for mask in base_masks:
            out = 0
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                out |= 1 << perm[bit.bit_length() - 1]
            mapped.add(out)
        if mapped == target:
            return True
    return False
