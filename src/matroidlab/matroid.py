"""Validated matroid values: axiom checking, rank, duality, partition constructors.

A matroid is represented by its ground set and its base family; the base
family is the single source of truth, and the independent sets are derived
from it on demand.  Construction always validates the defining axioms and
reports the canonically least witness on failure, so invalid values cannot
exist.

The expansion map (`expansion_masks`) is the one place that decides whether
a secondary base plus an element is a base: the exchange validator here, the
forming families, both unique-expansion and unique-exchange classifiers, the
intersection-minimality verdict (its distinct masks are the cocircuits), the
requirements of the minimality search and the enumerator's hyperplanes all
read it.  For any subset, `_expansion_of` is the one closure pass: the
expansion operator and the flag of flats read it.

The exchange check (`first_exchange_violation`) decides a family in one pass:
it passes exactly when every member meets every expansion mask.  A triple
(B1, B2, x) violates exchange exactly when B2 misses the expansion mask of
B1 - x, whose bits are the elements restoring a member, x among them; and a
member missing the expansion mask of a key A misses it at some x with A + x
a member, which is such a triple.  On a matroid the expansion masks are the
cocircuits, so this is the fact that every base meets every cocircuit
(Oxley, Matroid Theory, 2nd ed., ch. 2).  Only a failing family is scanned
pair by pair, for its canonically least triple.

Unique expansion and unique exchange are decided the same way
(`_fork_verdicts`), in one pass over the distinct expansion masks and the
members: expansion fails exactly when some mask meets some member in two
elements, and exchange exactly when such a mask also reaches outside that
member.  Only a false verdict is scanned for its canonical witness.

Every fact derived from the bases that a second reader shares (the
expansion map, the forming family, the uniqueness verdicts, the dual, and
the rest) is a plain `build(m)` under one decorator, `memo_fact`, built at
most once per matroid value and kept in its memo, where it never goes stale.
A warm read is one dict lookup; only a miss runs the build, which reads its
own prerequisites, and stores what it returned, so a build that raises
stores nothing.  A fact with one reader, such as a false verdict's witness
or the base intersection, is a plain function, built on each call.  The
memo of a `from_bases` matroid, the dual included, starts with the expansion
map its exchange check built and nothing else, so no dual points back.
"""

from __future__ import annotations

import json
from functools import update_wrapper
from itertools import combinations, groupby, permutations, product
from typing import Callable, Iterable, Sequence

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
    _bit_indices,
    _single_bits,
    complements,
    low,
    transversals,
)

_UNBUILT = object()  # what a memo read gets for a fact not built yet


def memo_fact(key: str) -> Callable[[Callable], Callable]:
    """Keep what `build(m)` returns in the memo of `m` under `key`, `None`
    included (never mutate it).  A warm read is one dict lookup; a miss goes
    through `_miss`."""
    def decorate(build: Callable) -> Callable:
        def read(m):
            value = m._facts.get(key, _UNBUILT)
            return _miss(m, key, build) if value is _UNBUILT else value
        return update_wrapper(read, build)

    return decorate


def _miss(m: Matroid, name: str, build: Callable):
    """Build the fact `name` of `m` and keep it; a build that raises keeps nothing."""
    m._facts[name] = value = build(m)
    return value


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
        # inline: via `_single_bits`, analyze --json on the 12-element (2,8) document read 1-5% slower
        while rest:
            bit = rest & -rest
            rest ^= bit
            exp[base ^ bit] = exp.get(base ^ bit, 0) | bit
    return exp


def _expansion_of(base_masks: Iterable[int], x: int) -> int:
    """The elements whose addition raises the rank of the mask `x`: the
    complement of its closure, in one pass over the bases.

    With r = max |B & x|, the rank of x, this is the union of the bases B
    with |B & x| = r, less x, since x + e has rank r + 1 exactly when e lies
    in such a B.  If it does, (B & x) + e is an independent (r + 1)-subset of
    x + e.  Conversely, an independent (r + 1)-subset of x + e holds e and
    extends to a base B, which meets x in at least r elements, so exactly r.
    """
    r, grow = -1, 0
    for b in base_masks:
        k = (b & x).bit_count()
        if k > r:
            r, grow = k, b
        elif k == r:
            grow |= b
    return grow & ~x


def first_exchange_violation(
    masks: Sequence[int], exp: dict[int, int]
) -> tuple[int, int, int] | None:
    """First (base1, base2, x) violating the base exchange requirement.

    `exp` is `expansion_masks(masks)`, which the caller builds and keeps.
    Returns None exactly when the family satisfies the exchange requirement,
    in any order of `masks`; otherwise the least triple in their order.

    A family of any shape passes exactly when every member meets every
    expansion mask.  The repairs of (B1, B2, x) are the bits of B2 in
    exp[B1 - x], since that mask holds no bit of B1 - x; so the triple
    violates exactly when B2 misses exp[B1 - x].  Conversely, if a member B2
    misses exp[A] for some key A, pick x in exp[A]: then A + x is a member
    B1, x is not in B2 (which misses exp[A]), and (B1, B2, x) violates.  One
    pass over the (mask, member) pairs therefore decides the family.  (On a
    matroid the expansion masks are the complements of hyperplanes, the
    cocircuits, and this is the fact that every base meets every cocircuit.)

    Only a failing family is scanned (`_least_triple`) for its canonically
    least triple.
    """
    for grows in set(exp.values()):
        for b in masks:
            if not b & grows:
                return _least_triple(masks, exp)
    return None


def _fork_verdicts(masks: Iterable[int], exp: dict[int, int]) -> tuple[bool, bool]:
    """(unique expansion, unique exchange) of a family, with no witness.

    `exp` is `expansion_masks` of the members `masks`, in any order.  Unique
    expansion fails exactly when some expansion mask g and member B have
    |g & B| >= 2, since the elements e of B with A + e a member are the bits
    of B in exp[A].  Unique exchange fails exactly when some such pair also
    has g not inside B.  For a key A with exp[A] = g and an x in g - B,
    A + x is a member B1 with x in B1 - B, and the repairs of (B1, B, x) are
    the two or more bits of g & B: a forked triple.  Conversely a forked
    (B1, B2, x) has x in exp[B1 - x] but not in B2, so g = exp[B1 - x] and
    B = B2 are such a pair.  This holds for families of any shape, so one
    pass over the (distinct mask, member) pairs decides both classes, and a
    pair that fails exchange fails expansion too.  (On a matroid the masks
    are the cocircuits.)

    A mask of one bit cannot fork, and one of two bits forks only inside B,
    so once expansion has failed only masks of three or more bits are read.
    """
    expansion = True
    for grows in set(exp.values()):
        if grows.bit_count() < (2 if expansion else 3):
            continue
        for b in masks:
            both = grows & b
            if both & (both - 1):
                if both != grows:
                    return False, False
                expansion = False
    return expansion, True


def _least_triple(
    masks: Sequence[int], exp: dict[int, int], *, forked: bool = False
) -> tuple[int, int, int] | None:
    """The canonically least (B1, B2, x) whose repair mask exp[B1 - x] & B2
    is empty, or with `forked` holds two or more bits.

    The one walk over exchange triples: ordered member pairs in the order of
    `masks`, removals x in B1 - B2 by ascending index.  `exp` must hold every
    B1 - x, as `expansion_masks(masks)` does.
    """
    for b1 in masks:
        for b2 in masks:
            for xbit in _single_bits(b1 & ~b2):
                repairs = exp[b1 ^ xbit] & b2
                if repairs & (repairs - 1) if forked else not repairs:
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
        self.rank = bases._order[0].bit_count()
        self._facts = {}
        return self

    @memo_fact("expansions")
    def _expansion_map(self) -> dict[int, int]:
        """The memoized `expansion_masks` of the bases: read it, never mutate it."""
        return expansion_masks(self.bases.masks())

    @classmethod
    def from_bases(cls, ground: GroundSet, candidate: SetFamily) -> Matroid:
        """Validate a candidate base family and build the matroid.

        Checks run in order: nonemptiness, equal cardinality (for a clearer
        message than a bare exchange failure), then the exchange requirement
        (`first_exchange_violation`: one pass over expansion masks and bases,
        and a pair scan only for a failing family's least triple).  The
        expansion map that check builds seeds the new matroid's memo, where
        `_expansion_map` reads it.
        """
        if candidate.ground != ground:
            raise ValueError("candidate family lives on a different ground set")
        if not candidate:
            raise EmptyFamily("a base family must be nonempty")
        masks = candidate._order
        size = masks[0].bit_count()
        for mask in masks:
            if mask.bit_count() != size:
                raise UnequalCardinality(*map(ground.from_mask, (masks[0], mask)))
        exp = expansion_masks(masks)
        violation = first_exchange_violation(masks, exp)
        if violation is not None:
            b1, b2, x = violation
            raise ExchangeFailure(
                Subset(ground, b1), Subset(ground, b2), ground.label(x)
            )
        m = cls._trusted(ground, candidate)
        m._facts["expansions"] = exp
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
        ordered = indep._order
        for whole in ordered:
            bits = _single_bits(whole)
            for bit in bits:
                if whole ^ bit not in masks:
                    # the least missing subset, sought by size in canonical
                    # order: each subset passed is a member, and whole ^ bit
                    # is missing, so the walk is bounded by the family's size
                    missing = next(
                        sub for k in range(1, len(bits))
                        for sub in map(sum, combinations(bits, k)) if sub not in masks
                    )
                    raise NotDownwardClosed(*map(ground.from_mask, (whole, missing)))
        # canonical order is by size first, and a downward-closed family has
        # members of every size up to the largest: layers[k] holds size k
        layers = [list(run) for _, run in groupby(ordered, int.bit_count)]
        for smaller, larger in zip(layers, layers[1:]):
            for small in smaller:
                for big in larger:
                    for bit in _single_bits(big & ~small):
                        if (small | bit) in masks:
                            break
                    else:
                        raise AugmentationFailure(*map(ground.from_mask, (small, big)))
        return cls.from_bases(ground, SetFamily._from_canonical(ground, layers[-1]))

    def independents(self) -> SetFamily:
        """The full independence family: the downward closure of the bases."""
        return low(self.bases)

    def rank_of(self, x: Subset) -> int:
        """Rank of `x`: the size of a largest independent subset of `x`.

        Equals max |B intersect x| over the bases, since every maximal
        independent subset of x extends to a base.
        """
        if x.ground != self.ground:
            raise ValueError("subset lives on a different ground set")
        return max((m & x.mask).bit_count() for m in self.bases.masks())

    @memo_fact("support")
    def support(self) -> Subset:
        """Union of all bases, a memo fact: the bases are ORed once per matroid."""
        return self.bases.union()

    def base_intersection(self) -> Subset:
        """Common intersection of all bases."""
        return self.bases.intersection()

    @memo_fact("dual")
    def dual(self) -> Matroid:
        """The matroid whose bases are the complements of this one's bases.

        Duality of a valid matroid always yields a valid matroid; validation
        still runs as a self-check, once per matroid, since the dual is kept
        in the memo.  The dual's memo holds no back-pointer, so
        `m.dual().dual()` is a new validated matroid equal to `m`: a pointer
        back would make each matroid and its dual a reference cycle, which
        only the cyclic collector frees, so a streamed population would stay
        alive between collections.  On a family that is not a matroid
        (reachable only through `_trusted`) the build raises its `AxiomError`
        and, like any fact, stores nothing.
        """
        return Matroid.from_bases(self.ground, complements(self.bases))

    def to_doc(self) -> dict:
        """Canonical JSON-ready document: ground set labels and base label lists."""
        render = self.ground._render
        return {
            "ground_set": list(self.ground.labels),
            "bases": [list(render(b)) for b in self.bases._order],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> Matroid:
        """Parse a document with `ground_set` and exactly one of `bases`/`independents`.

        Labels are strings or numbers, and numbers are stringified; any other
        label (null, a boolean, a list, an object) raises ParseError, as do
        the other schema problems.  Axiom violations surface unchanged.
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
        labels = [_label(x) for x in doc["ground_set"]]
        try:
            ground = GroundSet(labels)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        # each row becomes a mask directly, with no Subset per label
        index = ground.index
        masks = []
        try:
            for row in rows:
                mask = 0
                for label in row:
                    kind = type(label)
                    # the JSON label types inline; _label refuses the others
                    if kind is not str:
                        label = str(label) if kind is int or kind is float else _label(label)
                    mask |= 1 << index(label)
                masks.append(mask)
        except KeyError as exc:
            raise ParseError(f"set member not in ground set: {exc.args[0]}") from None
        family = SetFamily.from_masks(ground, masks)
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


def _label(x) -> str:
    """A document label as a string: a string as it stands, a number
    stringified; ParseError naming any other value."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return str(x)
    raise ParseError(
        f"label {json.dumps(x, default=repr)} is neither a string nor a number"
    )


def make_partition_matroid(
    ground: GroundSet, p: Partition, caps: tuple[int, ...]
) -> Matroid:
    """Matroid whose independents pick at most caps[i] elements from the
    i-th block of `p`, its blocks taken in canonical order.

    Elements outside the union of the blocks belong to no independent set
    (they behave like an extra block capped at zero), so a partition of a
    proper subset of the ground set is fine.  The bases are exactly the
    unions of one cap_i-subset per block.
    """
    if p.ground != ground:
        raise ValueError("blocks live on a different ground set")
    if len(caps) != len(p):
        raise ValueError(f"{len(caps)} caps for {len(p)} blocks")
    blocks = p.family._order
    for block, cap in zip(blocks, caps):
        if cap < 0 or cap > block.bit_count():
            raise CapOutOfRange(
                f"cap {cap} out of range for block {ground.from_mask(block)}"
                f" of size {block.bit_count()}"
            )
    masks = [0]
    for block, cap in zip(blocks, caps):
        picks = list(map(sum, combinations(_single_bits(block), cap)))
        masks = [m | pick for m in masks for pick in picks]
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
    base_masks = a.bases._order
    degrees_sorted = sorted(groups_a)
    for assignment in product(
        *(permutations(groups_b[d]) for d in degrees_sorted)
    ):
        perm = [0] * n
        for d, images in zip(degrees_sorted, assignment):
            for src, dst in zip(groups_a[d], images):
                perm[src] = dst
        mapped = {
            sum(1 << perm[i] for i in _bit_indices(mask)) for mask in base_masks
        }
        if mapped == target:
            return True
    return False
