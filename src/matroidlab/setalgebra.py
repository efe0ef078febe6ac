"""Ground sets, bitmask subsets, canonically ordered set families, partitions.

Everything here is an immutable value.  A ground set fixes an ordered universe
of at most 64 opaque string labels; subsets are single machine words over the
element indices, so membership, union, intersection and complement are O(1).
A family holds its canonically ordered mask tuple and its mask set, and
builds its `Subset` members only on the first read of `sets` or the first
iteration; its length, truth, equality, hash, union, intersection and
membership read the masks alone.  Each ground set keeps one private memo, the
label tuple of every mask below 256 it has rendered (at most 256 entries,
filled on first use); it never changes what a value equals, hashes or prints.  The walks over a mask, its
bits (`_bit_indices`, `_single_bits`), its submasks (`_submasks`) and the one
pass that tests blocks as a partition (`_disjoint_union`), are written here.

Canonical order: subsets compare by (cardinality, sorted index list), families
by the resulting member list.  Two equal families therefore always serialize
identically, which keeps every report and witness deterministic.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import GroundSetTooLarge

MAX_GROUND_SIZE = 64


# the indices of every byte-sized mask: each subset of a ground set of at
# most 8 elements is read from here, and a larger one a byte at a time
_BYTE_BITS = tuple(
    tuple(i for i in range(8) if mask >> i & 1) for mask in range(256)
)


# the single-bit masks of every byte-sized mask, lowest first
_BYTE_SINGLE_BITS = tuple(tuple(1 << i for i in bits) for bits in _BYTE_BITS)


def _bit_indices(mask: int) -> tuple[int, ...]:
    if mask < 256:
        if mask < 0:
            # a negative int has infinitely many set bits
            raise ValueError(f"negative mask {mask} has no bit indices")
        return _BYTE_BITS[mask]
    out = list(_BYTE_BITS[mask & 255])
    mask >>= 8
    at = 8
    while mask:
        byte = mask & 255
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(at + i)
        mask >>= 8
        at += 8
    return tuple(out)


def _single_bits(mask: int) -> tuple[int, ...]:
    """The single-bit masks of `mask`, lowest first: `1 << i` for each `i`
    of `_bit_indices(mask)`, read from a table up to 8 elements."""
    if 0 <= mask < 256:
        return _BYTE_SINGLE_BITS[mask]
    return tuple(1 << i for i in _bit_indices(mask))


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of `mask`, from `mask` itself down to 0 (the submask
    walk, not canonical order)."""
    sub = mask
    yield sub
    while sub:
        sub = (sub - 1) & mask
        yield sub


def canonical_key(mask: int) -> tuple:
    """Sort key of a subset mask in canonical order: (cardinality, index list)."""
    return (mask.bit_count(), _bit_indices(mask))


# every byte-sized mask in canonical order, and the position of each in that
# order, its inverse: on a ground set of at most 8 elements a mask sorts by
# its position instead of by its key tuple, and the enumerator builds whole
# families as tuples of positions, read back to masks through _BYTE_UNRANK
_BYTE_UNRANK = tuple(sorted(range(256), key=canonical_key))
_BYTE_RANK = tuple(sorted(range(256), key=_BYTE_UNRANK.__getitem__))


# each byte with its bits in reverse order
_BYTE_REVERSED = bytes(
    sum(1 << 7 - i for i in _BYTE_BITS[byte]) for byte in range(256)
)
_WORD = (1 << MAX_GROUND_SIZE) - 1


def _wide_order_key(mask: int) -> int:
    """Sort key of a mask of up to 64 bits in canonical order, as an int.

    Of two masks of one size, the one holding the lowest bit where they
    differ has the smaller index list.  Reversing the 64 bits makes that bit
    the highest differing one, and complementing the reversal puts the mask
    that holds it first; the size goes above all 64 bits.
    """
    word = mask.to_bytes(MAX_GROUND_SIZE // 8, "little")
    reversed_bits = int.from_bytes(word.translate(_BYTE_REVERSED), "big")
    return mask.bit_count() << MAX_GROUND_SIZE | _WORD ^ reversed_bits


def mask_order_key(size: int) -> Callable[[int], int]:
    """A sort key putting the masks of a `size`-element ground set in
    canonical order, the order of `canonical_key`, as an int: the
    `_BYTE_RANK` lookup up to 8 elements, else `_wide_order_key`.  The lookup
    reads a negative mask from the table's end and fails past it, and the
    wide key fails on a negative mask or one past 64 bits, so range-check
    masks before sorting by it.
    """
    return _BYTE_RANK.__getitem__ if size <= 8 else _wide_order_key


class GroundSet:
    """An ordered universe of distinct element labels."""

    __slots__ = ("labels", "size", "_index", "_hash", "_rendered")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("ground set must be nonempty")
        if len(labels) > MAX_GROUND_SIZE:
            raise GroundSetTooLarge(
                f"{len(labels)} elements, cap is {MAX_GROUND_SIZE}"
            )
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("ground set labels must be distinct")
        self.labels = labels
        self.size = len(labels)
        self._index = index
        self._hash = hash(labels)
        # the label tuple of each mask below 256 rendered so far
        self._rendered: dict[int, tuple[str, ...]] = {}

    def _render(self, mask: int) -> tuple[str, ...]:
        """The labels of a mask's elements, in ground-set order.

        A mask below 256 is rendered once per ground set and then read from
        its memo; the tuple is shared, which is safe since tuples and labels
        are immutable.
        """
        labels = self._rendered.get(mask)
        if labels is None:
            labels = tuple(map(self.labels.__getitem__, _bit_indices(mask)))
            if mask < 256:
                self._rendered[mask] = labels
        return labels

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in ground set") from None

    def label(self, index: int) -> str:
        return self.labels[index]

    def subset(self, *labels: str) -> Subset:
        """Subset holding the given labels (duplicates collapse)."""
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(str(lab))
        return Subset(self, mask)

    def from_mask(self, mask: int) -> Subset:
        return Subset(self, mask)

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, (1 << self.size) - 1)

    def all_subsets(self) -> Iterator[Subset]:
        """Every subset of the universe, in mask order (not canonical order)."""
        for mask in range(1 << self.size):
            yield Subset(self, mask)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroundSet) and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundSet({','.join(self.labels)})"


def _same_ground(a: GroundSet, b: GroundSet) -> None:
    if a is not b and a != b:
        raise ValueError("operands live on different ground sets")


class Subset:
    """An immutable subset of a ground set, stored as a bitmask of indices."""

    __slots__ = ("ground", "mask")

    def __init__(self, ground: GroundSet, mask: int):
        if mask < 0 or mask >> ground.size:
            raise ValueError("mask has bits outside the ground set")
        self.ground = ground
        self.mask = mask

    def indices(self) -> tuple[int, ...]:
        return _bit_indices(self.mask)

    def labels(self) -> tuple[str, ...]:
        """The labels of the elements, in ground-set order (`GroundSet._render`)."""
        return self.ground._render(self.mask)

    @property
    def sort_key(self) -> tuple:
        return canonical_key(self.mask)

    def __or__(self, other: Subset) -> Subset:
        _same_ground(self.ground, other.ground)
        return Subset(self.ground, self.mask | other.mask)

    def __and__(self, other: Subset) -> Subset:
        _same_ground(self.ground, other.ground)
        return Subset(self.ground, self.mask & other.mask)

    def __sub__(self, other: Subset) -> Subset:
        _same_ground(self.ground, other.ground)
        return Subset(self.ground, self.mask & ~other.mask)

    def __contains__(self, label: str) -> bool:
        return (self.mask >> self.ground.index(str(label))) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subset)
            and self.ground == other.ground
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.mask))

    def __lt__(self, other: Subset) -> bool:
        _same_ground(self.ground, other.ground)
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


class SetFamily:
    """A duplicate-free collection of subsets, kept in canonical order.

    The family holds its masks twice: as the canonically ordered tuple
    `_order`, which every library read that needs only masks walks, and as
    the frozenset `masks()`.  Its `Subset` members are built on the first
    read of `sets` (or the first iteration) and then kept; `len`, truth,
    `==`, `hash`, `masks()`, `union()`, `intersection()` and `in` never
    build them.
    """

    __slots__ = ("ground", "_order", "_masks", "_sets")

    def __init__(self, ground: GroundSet, subsets: Iterable[Subset] = ()):
        masks = set()
        for s in subsets:
            _same_ground(ground, s.ground)
            masks.add(s.mask)
        self._fill(ground, masks)

    @classmethod
    def from_masks(cls, ground: GroundSet, masks: Iterable[int]) -> SetFamily:
        """The family of the subsets of `ground` with these masks.

        Duplicates collapse and members sort canonically, as in the
        constructor; a mask with a bit outside the ground set raises
        ValueError.  Every family the library computes as masks is built here,
        or by `_from_canonical` when it is already in canonical order.
        The masks are range-checked once, together, so the members built
        from them later skip the per-member check of the `Subset` constructor.
        """
        family = cls.__new__(cls)
        family._fill(ground, set(masks))
        return family

    @classmethod
    def _from_canonical(cls, ground: GroundSet, ordered: Sequence[int]) -> SetFamily:
        """`from_masks` for distinct masks already in canonical order, which
        are range-checked but not sorted again."""
        family = cls.__new__(cls)
        family._fill(ground, set(ordered), ordered)
        return family

    def _fill(
        self, ground: GroundSet, masks: set[int], ordered: Sequence[int] | None = None
    ) -> None:
        # the masks are range-checked before they are sorted, since the sort
        # key of a mask out of range is wrong or undefined
        if masks and (min(masks) < 0 or max(masks) >> ground.size):
            raise ValueError("mask has bits outside the ground set")
        self.ground = ground
        if ordered is None:
            ordered = sorted(masks, key=mask_order_key(ground.size))
        self._order = tuple(ordered)
        # copied from a set: a frozenset grown from any other iterable can
        # keep a hash table twice the size
        self._masks = frozenset(masks)
        self._sets = None

    @property
    def sets(self) -> tuple[Subset, ...]:
        """The members as `Subset` values, in canonical order, built on the
        first read and then kept."""
        sets = self._sets
        if sets is None:
            # every mask is in range, so the members skip the constructor's check
            ground, new = self.ground, object.__new__
            members = []
            append = members.append
            for m in self._order:
                member = new(Subset)
                member.ground = ground
                member.mask = m
                append(member)
            sets = self._sets = tuple(members)
        return sets

    def masks(self) -> frozenset[int]:
        return self._masks

    @property
    def sort_key(self) -> tuple:
        return tuple(map(canonical_key, self._order))

    def union(self) -> Subset:
        mask = 0
        for m in self._masks:
            mask |= m
        return Subset(self.ground, mask)

    def intersection(self) -> Subset:
        """Common intersection of all members; the family must be nonempty."""
        if not self._order:
            raise ValueError("intersection of an empty family is undefined")
        mask = (1 << self.ground.size) - 1
        for m in self._masks:
            mask &= m
        return Subset(self.ground, mask)

    def __contains__(self, s: Subset) -> bool:
        return s.ground == self.ground and s.mask in self._masks

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self._order)

    def __bool__(self) -> bool:
        return bool(self._order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self._masks))

    def __repr__(self) -> str:
        return "{" + ",".join(repr(s) for s in self.sets) + "}"


def low(family: SetFamily) -> SetFamily:
    """Downward closure: every subset of every member."""
    seen: set[int] = set()
    for mask in family.masks():
        seen.update(_submasks(mask))
    return SetFamily.from_masks(family.ground, seen)


def maximal(family: SetFamily) -> SetFamily:
    """Inclusion-maximal members of the family."""
    masks = family.masks()
    keep = [
        m
        for m in masks
        if not any(m != o and m & ~o == 0 for o in masks)
    ]
    return SetFamily.from_masks(family.ground, keep)


def complements(family: SetFamily) -> SetFamily:
    """Complement of every member, taken in the ground set.

    Complementing reverses canonical order, so the members are read in
    reverse and not sorted.  Take distinct masks A before B.  If |A| < |B|,
    then |full ^ A| > |full ^ B|.  If |A| = |B|, let d be the least element
    of A ^ B: it lies in A, since A holds the lowest bit where the two
    differ.  The complements differ in the same bits, (full ^ A) ^
    (full ^ B) = A ^ B, and d now lies in full ^ B, so full ^ B comes first.
    """
    full = (1 << family.ground.size) - 1
    return SetFamily._from_canonical(
        family.ground, [full ^ m for m in reversed(family._order)]
    )


def is_covering(family: SetFamily, support: Subset) -> bool:
    """True iff the family has no empty block and its union is exactly `support`.

    An empty family covers an empty support vacuously; a nonempty support can
    only be covered by a nonempty family.
    """
    _same_ground(family.ground, support.ground)
    if 0 in family.masks():
        return False
    return family.union().mask == support.mask


def _disjoint_union(masks: Iterable[int]) -> int | None:
    """The union of the masks, or None when one is empty or two overlap:
    the one pass that tests a family as a partition of its union."""
    union = 0
    for mask in masks:
        if not mask or union & mask:
            return None
        union |= mask
    return union


def is_partition(family: SetFamily, support: Subset) -> bool:
    """True iff the family covers `support` with pairwise disjoint blocks."""
    _same_ground(family.ground, support.ground)
    return _disjoint_union(family.masks()) == support.mask


class Partition:
    """A set family with nonempty, pairwise disjoint blocks.

    A partition partitions its own union; the union is exposed as `support()`,
    kept from the validation that computes it.  The empty partition (no
    blocks, empty support) is allowed as the degenerate case.
    """

    __slots__ = ("family", "_support")

    def __init__(self, family: SetFamily):
        support = _disjoint_union(family.masks())
        if support is None:
            raise ValueError(f"{family} is not a partition: blocks must be nonempty and disjoint")
        self.family = family
        self._support = Subset(family.ground, support)

    @property
    def ground(self) -> GroundSet:
        return self.family.ground

    def support(self) -> Subset:
        return self._support

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.family == other.family

    def __hash__(self) -> int:
        return hash(self.family)

    def __repr__(self) -> str:
        return f"Partition({self.family!r})"


def combination_number(p: Partition) -> int:
    """Product of the block sizes; counts the one-per-block transversals."""
    return prod(k.bit_count() for k in p.family._order)


def _transversal_masks(blocks: Sequence[int]) -> list[int]:
    """Masks picking exactly one bit from every block mask; [0] for no blocks.

    For disjoint blocks the picks are distinct and their number is the
    product of the block sizes.
    """
    masks = [0]
    for block in blocks:
        bits = _single_bits(block)
        masks = [m | bit for m in masks for bit in bits]
    return masks


def transversals(p: Partition) -> SetFamily:
    """All sets picking exactly one element from every block of `p`.

    For the empty partition this is the single empty set.
    """
    picks = _transversal_masks(p.family._order)
    return SetFamily.from_masks(p.ground, picks)


def one_per_block(masks: Iterable[int], blocks: Collection[int]) -> bool:
    """Does every mask meet every block mask in exactly one element?

    The definitional twin of `transversals`: the subsets of `p.support()`
    passing this test for the block masks `p.family.masks()` of the
    partition `p` are exactly `transversals(p)`.
    """
    return all((x & k).bit_count() == 1 for x in masks for k in blocks)


def _partition_masks(
    support: int, members: Collection[int] = (), most: int = MAX_GROUND_SIZE
) -> Iterator[list[int]]:
    """Every partition of the bits of `support` into at most `most` blocks,
    none holding two bits of one of `members`, as a list of block masks.

    The lowest bit joins each block of a partition of the other bits in turn,
    then opens a block of its own; blocks are listed in the order they open,
    not in canonical order.  Adding the lower bits never closes a block or
    moves a bit out of its block, so a partial partition breaking either
    bound is not extended, and the bounded walk yields a subsequence of the
    unbounded one, in its order.
    """
    if not support:
        yield []
        return
    bit = support & -support
    # the other bits of every member holding `bit`; `bit` itself is in no
    # block of the rest
    mates = 0
    for x in members:
        mates |= x if x & bit else 0
    for sub in _partition_masks(support ^ bit, members, most):
        for i in range(len(sub)):
            if not sub[i] & mates:
                yield sub[:i] + [sub[i] | bit] + sub[i + 1:]
        if len(sub) < most:
            yield sub + [bit]


def all_partitions(support: Subset) -> Iterator[Partition]:
    """Every partition of `support`, as Partition values over its ground set.

    The number of results is the Bell number of len(support), so keep the
    support small.  The verification harness does not call this: it walks
    `_partition_masks` with the bounds a one-per-block partition must meet,
    once per matroid, and builds a family only for a failure message.
    """
    ground = support.ground
    for blocks in _partition_masks(support.mask):
        yield Partition(SetFamily.from_masks(ground, blocks))
