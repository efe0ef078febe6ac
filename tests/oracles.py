"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately goes through definitions rather than through the
code paths under test: ranks by scanning all subsets for independence,
enumeration by pushing every candidate family through the validating
constructor or by scanning every family with a literal exchange test,
expansion sets by comparing maximal independent subsets, the support
partition checks by walking `Partition` values with the public set algebra,
the exchange checks by scanning `Subset` values, the base-relative forming
checks on `SetFamily` values, the exchange validator by probing base
membership one repair at a time, the independence validator over every pair
of members, bit indices (and the labels read through them) one bit
position at a time, the `thm_334` check by both exhaustive minimality
searches on every matroid, the classifiers' minimality witnesses by a flag
of flats closed under `rank_oracle`, the definitional scans by a walk over every
mask of the ground set, the enumerator's linear subclasses by rank scans
over every mask and every set of hyperplanes, and the cocircuits as the
complements of the hyperplanes that `rank_oracle` finds.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable, Iterator

from matroidlab import (
    GroundSet,
    Matroid,
    SetFamily,
    Subset,
    all_partitions,
    forming_family_wrt,
    one_per_block,
    recover_partition,
    transversals,
)
from matroidlab.classify import _minimality_search
from matroidlab.errors import (
    AugmentationFailure,
    AxiomError,
    MissingEmptySet,
    NotDownwardClosed,
)
from matroidlab.matroid import first_exchange_violation
from matroidlab.setalgebra import _submasks


def subset_of(ground: GroundSet, indices) -> Subset:
    """The subset of `ground` holding the elements at `indices`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return Subset(ground, mask)


def subsets(x: Subset) -> Iterator[Subset]:
    """All subsets of `x` (submask walk, not canonical order)."""
    return (Subset(x.ground, sub) for sub in _submasks(x.mask))


def is_independent(m: Matroid, x: Subset) -> bool:
    """True iff `x` is contained in some base."""
    if x.ground != m.ground:
        raise ValueError("subset lives on a different ground set")
    return any(x.mask & ~b == 0 for b in m.bases.masks())


def all_antichain_matroids(n: int) -> list[Matroid]:
    """Every labeled matroid on {1..n}: for each rank, every nonempty family
    of r-subsets that Matroid.from_bases accepts."""
    ground = GroundSet(str(i) for i in range(1, n + 1))
    found = []
    for r in range(n + 1):
        rsets = [subset_of(ground, c) for c in combinations(range(n), r)]
        for k in range(1, len(rsets) + 1):
            for combo in combinations(rsets, k):
                try:
                    found.append(Matroid.from_bases(ground, SetFamily(ground, combo)))
                except AxiomError:
                    pass
    return found


def exchange_scan_families(n: int, r: int) -> list[tuple[int, ...]]:
    """Every base family of rank r on {1..n} as a mask tuple, in canonical
    order: scan each family of r-subsets, keeping those closed under base
    exchange (equal-size sets always form an antichain)."""
    rsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    bits_of = [tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)]

    def exchange_closed(fam: tuple[int, ...]) -> bool:
        members = set(fam)
        for b1 in fam:
            for b2 in fam:
                if b1 == b2:
                    continue
                incoming = bits_of[b2 & ~b1]
                for x in bits_of[b1 & ~b2]:
                    stripped = b1 ^ (1 << x)
                    for y in incoming:
                        if stripped | (1 << y) in members:
                            break
                    else:
                        return False
        return True

    # fixing the least member and extending with greater r-subsets visits
    # each family once; members come out in canonical order already
    found = []
    for least, head in enumerate(rsets):
        tail = rsets[least + 1:]
        for size in range(len(tail) + 1):
            for extra in combinations(tail, size):
                fam = (head, *extra)
                if exchange_closed(fam):
                    found.append(fam)
    found.sort(key=lambda fam: tuple(bits_of[m] for m in fam))
    return found


def linear_subclasses_oracle(
    bases: tuple[int, ...], n: int
) -> tuple[list[int], set[frozenset[int]]]:
    """The hyperplanes (sorted masks) and the linear subclasses (as sets of
    hyperplane masks) of the matroid with these base masks on n elements,
    from rank scans alone: the rank of a mask is its largest meet with a
    base, the flats are the masks that every added element raises, the
    hyperplanes and colines are the flats of rank r - 1 and r - 2, and a
    linear subclass is any set L of hyperplanes that, for each coline C,
    holds at most one hyperplane through C or all of them."""
    r = bases[0].bit_count()
    rank = [max((b & x).bit_count() for b in bases) for x in range(1 << n)]
    flats = [
        x for x in range(1 << n)
        if all(rank[x | 1 << e] > rank[x] for e in range(n) if not x >> e & 1)
    ]
    hyperplanes = [x for x in flats if rank[x] == r - 1]
    through = [
        {h for h in hyperplanes if c & ~h == 0} for c in flats if rank[c] == r - 2
    ]
    subclasses = set()
    for k in range(len(hyperplanes) + 1):
        for combo in combinations(hyperplanes, k):
            chosen = set(combo)
            if all(len(chosen & t) <= 1 or t <= chosen for t in through):
                subclasses.add(frozenset(chosen))
    return hyperplanes, subclasses


def exchange_violation_oracle(family: SetFamily) -> tuple[Subset, Subset, str] | None:
    """The least (B1, B2, x) breaking the base exchange axiom as stated: for
    members B1 != B2 and x in B1 - B2, some y in B2 - B1 makes (B1 - {x}) + {y}
    a member.  B1, then B2, in canonical subset order, then x by ascending
    index; None when the axiom holds."""
    ground = family.ground
    members = sorted(family)
    for b1 in members:
        for b2 in members:
            if b1 == b2:
                continue
            for x in (b1 - b2).labels():
                stripped = b1 - ground.subset(x)
                if not any(
                    stripped | ground.subset(y) in family for y in (b2 - b1).labels()
                ):
                    return b1, b2, x
    return None


def exchange_scan_oracle(
    masks: list[int], members: frozenset[int]
) -> tuple[int, int, int] | None:
    """The least (B1, B2, x) by probing membership one repair at a time: for
    B1 != B2 in the given order and x in B1 - B2 by ascending index, no y in
    B2 - B1 makes (B1 - {x}) + {y} one of `members`.  Works on a family of
    any shape; None when there is no such triple."""
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            incoming = b2 & ~b1
            rest = b1 & ~b2
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                stripped = b1 ^ xbit
                cand = incoming
                while cand:
                    ybit = cand & -cand
                    cand ^= ybit
                    if (stripped | ybit) in members:
                        break
                else:
                    return b1, b2, xbit.bit_length() - 1
    return None


def independence_violation_oracle(
    family: SetFamily,
) -> tuple[type[AxiomError], tuple[Subset, ...]] | None:
    """The first independence axiom `family` breaks, with its witness: no
    empty set (no witness); else the first member in canonical order with a
    missing subset, and its least missing subset (by size, then in
    combinations order); else the least pair (small, big) in canonical order,
    over every pair with |small| < |big|, where no element of big - small
    grows small into a member.  None when every axiom holds."""
    ground = family.ground
    if ground.subset() not in family:
        return MissingEmptySet, ()
    for member in family:
        for k in range(len(member)):
            for sub in combinations(member.indices(), k):
                missing = subset_of(ground, sub)
                if missing not in family:
                    return NotDownwardClosed, (member, missing)
    for small in family:
        for big in family:
            if len(small) < len(big) and not any(
                small | ground.subset(x) in family for x in (big - small).labels()
            ):
                return AugmentationFailure, (small, big)
    return None


def unique_exchange_oracle(m: Matroid) -> tuple[Subset, Subset, str, str, str] | None:
    """The least (B1, B2, x, y1, y2) on `Subset` values: bases B1 != B2 in
    canonical order, x in B1 - B2 by ascending index, and y1 < y2 the first
    two elements of B2 - B1 that each make (B1 - {x}) + {y} a base; None when
    every removal has at most one repair."""
    base_masks = m.bases.masks()
    ground = m.ground
    for b1 in m.bases:
        for b2 in m.bases:
            if b1 == b2:
                continue
            incoming = (b2 - b1).indices()
            for x in (b1 - b2).indices():
                stripped = b1.mask ^ (1 << x)
                first = -1
                for y in incoming:
                    if (stripped | (1 << y)) in base_masks:
                        if first >= 0:
                            return (
                                b1, b2, ground.label(x),
                                ground.label(first), ground.label(y),
                            )
                        first = y
    return None


def mixed_size_families() -> list[Matroid]:
    """2,242 unvalidated families, matroids and not, of mixed set sizes:
    every nonempty family of subsets of {1,2,3} (the empty set included),
    every family of 1-5 sets of sizes 1-2 on {1..4}, and every family of
    1-3 sets of sizes 2-3 on {1..5}."""
    out = []
    for n, sizes, counts in ((3, range(4), range(1, 9)),
                             (4, (1, 2), range(1, 6)),
                             (5, (2, 3), range(1, 4))):
        ground = GroundSet(str(i) for i in range(1, n + 1))
        sets = [subset_of(ground, c) for k in sizes for c in combinations(range(n), k)]
        for k in counts:
            for combo in combinations(sets, k):
                out.append(Matroid._trusted(ground, SetFamily(ground, combo)))
    return out


def bit_indices_oracle(mask: int) -> tuple[int, ...]:
    """The set bit positions of `mask`, testing every position in turn."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def disjoint_union_oracle(masks: list[int]) -> int | None:
    """The union of the masks, or None when one is empty or the masks at two
    positions share a bit, testing every pair."""
    if 0 in masks:
        return None
    for i, j in combinations(range(len(masks)), 2):
        if masks[i] & masks[j]:
            return None
    width = max((m.bit_length() for m in masks), default=0)
    return sum(1 << i for i in range(width) if any(m >> i & 1 for m in masks))


def submasks_oracle(mask: int) -> list[int]:
    """Every x with no bit outside `mask`, from `mask` down to 0."""
    return [x for x in range(mask, -1, -1) if x & ~mask == 0]


def labels_oracle(ground: GroundSet, mask: int) -> tuple[str, ...]:
    """The labels of the elements of `mask`, looked up one index at a time."""
    return tuple(ground.label(i) for i in bit_indices_oracle(mask))


def prop_341_oracle(m: Matroid) -> str | None:
    """The `prop_341` check on `SetFamily` values: every base's forming family
    has as many blocks as the rank."""
    for b in m.bases:
        fam = forming_family_wrt(m, b)
        if len(fam) != m.rank:
            return f"|forming family wrt {b}| = {len(fam)} != rank {m.rank}"
    return None


def prop_124_oracle(m: Matroid) -> str | None:
    """The `prop_124` check on `SetFamily` values: every base's forming family
    covers the base support."""
    for b in m.bases:
        u = forming_family_wrt(m, b).union()
        if u != m.support():
            return f"union of forming family wrt {b} is {u} != {m.support()}"
    return None


def lemma_e_oracle(m: Matroid) -> str | None:
    """The `lemma_e` check on `SetFamily` values: every element of a base lies
    in exactly one block of that base's forming family."""
    for b in m.bases:
        fam = forming_family_wrt(m, b)
        for i in b.indices():
            hits = sum(1 for k in fam if (k.mask >> i) & 1)
            if hits != 1:
                return (
                    f"element {m.ground.label(i)} of base {b} lies in "
                    f"{hits} blocks of {fam}"
                )
    return None


def rank_oracle(m: Matroid, x: Subset) -> int:
    """Largest independent subset of x (one inside some base), found by
    scanning all subsets of x as masks."""
    if x.ground != m.ground:
        raise ValueError("subset lives on a different ground set")
    bases = tuple(m.bases.masks())
    best = 0
    for sub in _submasks(x.mask):
        size = sub.bit_count()
        if size > best and any(sub & ~b == 0 for b in bases):
            best = size
    return best


def expansion_oracle(m: Matroid, x: Subset) -> Subset:
    """Elements whose addition grows the largest independent subset by one."""
    base_rank = rank_oracle(m, x)
    out = 0
    for i in range(m.ground.size):
        bit = 1 << i
        if bit & x.mask:
            continue
        if rank_oracle(m, Subset(m.ground, x.mask | bit)) == base_rank + 1:
            out |= bit
    return Subset(m.ground, out)


def cocircuits_oracle(m: Matroid) -> SetFamily:
    """The complements of the hyperplanes, found by `rank_oracle` alone: a
    hyperplane is a mask of rank r - 1 that every element outside raises to
    rank r.  Empty at rank zero, where no mask has rank -1."""
    ground = m.ground
    ranks = [rank_oracle(m, Subset(ground, x)) for x in range(1 << ground.size)]
    full = (1 << ground.size) - 1
    return SetFamily(ground, [
        Subset(ground, full ^ h) for h in range(1 << ground.size)
        if ranks[h] == m.rank - 1
        and all(ranks[h | 1 << i] == m.rank for i in range(ground.size) if not h >> i & 1)
    ])


def unique_expansion_oracle(m: Matroid) -> tuple[Subset, Subset, str, str] | None:
    """The least (A, B, e1, e2) with A an independent set of size rank - 1, B
    an independent set of size rank, and e1 < e2 two elements of B that each
    grow the largest independent subset of A; None when there is none."""
    indep = m.independents()
    secondaries = [s for s in indep if len(s) == m.rank - 1]
    bases = [s for s in indep if len(s) == m.rank]
    for a in secondaries:
        grow = expansion_oracle(m, a)
        for b in bases:
            both = (grow & b).labels()
            if len(both) >= 2:
                return a, b, both[0], both[1]
    return None


def transversal_count_oracle(blocks: list[Subset]) -> int:
    """Number of one-per-block picks, counted by explicit enumeration."""
    picks = [frozenset()]
    for block in blocks:
        picks = [p | {i} for p in picks for i in block.indices()]
    return len(set(picks))


def isomorphic_oracle(a: Matroid, b: Matroid) -> bool:
    """Unpruned isomorphism test: try every bijection of the ground sets."""
    from itertools import permutations

    n = a.ground.size
    if n != b.ground.size:
        return False
    target = b.bases.masks()
    for perm in permutations(range(n)):
        mapped = set()
        for base in a.bases:
            out = 0
            for i in base.indices():
                out |= 1 << perm[i]
            mapped.add(out)
        if mapped == target:
            return True
    return False


def union_minimal_oracle(m: Matroid) -> bool:
    """Literal quantification: no valid proper subfamily keeps the base union."""
    return not _reducible(m, lambda fam: fam.union() == m.support())


def intersection_minimal_oracle(m: Matroid) -> bool:
    """Literal quantification: no valid proper subfamily keeps the base intersection."""
    return not _reducible(
        m, lambda fam: fam.intersection() == m.base_intersection()
    )


def _reducible(m: Matroid, keeps_boundary) -> bool:
    bases = m.bases.sets
    for k in range(1, len(bases)):
        for combo in combinations(bases, k):
            fam = SetFamily(m.ground, combo)
            if not keeps_boundary(fam):
                continue
            try:
                Matroid.from_bases(m.ground, fam)
            except AxiomError:
                continue
            return True
    return False


def thm_334_oracle(m: Matroid) -> str | None:
    """The `thm_334` check as two exhaustive searches, the union search on
    the matroid and the intersection search on its dual, compared by
    verdict."""
    um = _minimality_search(m, "union").verdict
    im = _minimality_search(m.dual(), "intersection").verdict
    if um != im:
        return f"union minimal {um} but dual intersection minimal {im}"
    return None


def definitional_scan_oracle(
    masks: frozenset[int], support: Subset, blocks: Iterable[int],
    caps: Iterable[int] | None = None, complement: bool = False,
) -> tuple[Subset, bool] | None:
    """`harness._definitional_scan` as a walk over all 2^n masks in integer
    order, testing each against the description one block mask quota at a
    time."""
    ground = support.ground
    outside = ~support.mask
    flip = ground.full().mask if complement else 0
    quotas = list(zip(blocks, caps or repeat(1)))
    for mask in range(1 << ground.size):
        x = mask ^ flip
        described = not x & outside and all((x & k).bit_count() == c for k, c in quotas)
        if (mask in masks) != described:
            return Subset(ground, mask), not described
    return None


def thm_123_oracle(m: Matroid) -> str | None:
    """The `thm_123` check on `Subset` values: for bases B1, B2 in canonical
    order and x in B1-B2 by ascending index, some y in B2-B1 must make
    (B2-{y})+{x} a base."""
    masks = m.bases.masks()
    for b1 in m.bases:
        for b2 in m.bases:
            for x in (b1 - b2).indices():
                xbit = 1 << x
                if not any(
                    ((b2.mask ^ (1 << y)) | xbit) in masks
                    for y in (b2 - b1).indices()
                ):
                    return (
                        f"no y in {b2}-{b1} with ({b2}-{{y}})+"
                        f"{{{m.ground.label(x)}}} a base"
                    )
    return None


def thm_33_oracle(m: Matroid) -> str | None:
    """The `thm_33` check on `Partition` values: for every partition of the
    base support, one-per-block must agree with equality to the product."""
    base_masks = m.bases.masks()
    for p in all_partitions(m.support()):
        once = one_per_block(base_masks, p.family.masks())
        prod = m.bases == transversals(p)
        if once != prod:
            return f"partition {p.family}: one-per-block {once} but product match {prod}"
    return None


def prop_103_oracle(m: Matroid) -> str | None:
    """The `prop_103` check on `Partition` values: the one-per-block support
    partitions are exactly the recovered partition, or none without one."""
    base_masks = m.bases.masks()
    hits = [
        p for p in all_partitions(m.support())
        if one_per_block(base_masks, p.family.masks())
    ]
    recovered = recover_partition(m)
    if recovered is None:
        if hits:
            return f"no recovered partition but {len(hits)} one-per-block partitions exist"
    else:
        if len(hits) != 1 or hits[0] != recovered:
            return f"recovered {recovered.family} but one-per-block partitions are {[h.family for h in hits]}"
    return None


def minimality_witness_oracle(m: Matroid, kind: str) -> SetFamily | None:
    """The canonical union (`kind="union"`) or intersection minimality
    witness by the plain scan: every proper subfamily in decreasing size, in
    `combinations` order within a size, keeping the boundary and passing the
    exchange scan that `from_bases` uses (itself pinned against
    `exchange_violation_oracle`); None when the matroid is minimal."""
    if kind == "union":
        support = m.support().mask

        def same_boundary(masks):
            u = 0
            for x in masks:
                u |= x
            return u == support
    else:
        common = m.base_intersection().mask
        full = (1 << m.ground.size) - 1

        def same_boundary(masks):
            c = full
            for x in masks:
                c &= x
            return c == common

    bases = m.bases.sets
    for k in range(len(bases) - 1, 0, -1):
        for combo in combinations(bases, k):
            masks = [s.mask for s in combo]
            if same_boundary(masks) and (
                first_exchange_violation(masks) is None
            ):
                return SetFamily(m.ground, combo)
    return None


def flag_witness_oracle(m: Matroid, kind: str) -> SetFamily | None:
    """The flag reduction of `union_minimal`'s proof from rank scans: every
    transversal of the blocks Fi - Fi-1 of the lowest maximal chain of flats,
    F0 the closure of {} and each next flat the closure of the one before
    plus its lowest element outside, a closure holding each element that
    leaves the `rank_oracle` rank unchanged.  For `kind="intersection"` the
    chain is the dual's, ranked |X| + r(E - X) - r(E), and the family is the
    complements of its transversals.  None when the family is all the bases."""
    ground = m.ground
    full = ground.full().mask
    top = rank_oracle(m, ground.full())
    ranks: dict[int, int] = {}

    def rank(x: int) -> int:
        if x not in ranks:
            if kind == "union":
                ranks[x] = rank_oracle(m, Subset(ground, x))
            else:
                ranks[x] = x.bit_count() + rank_oracle(m, Subset(ground, full ^ x)) - top
        return ranks[x]

    def closure(x: int) -> int:
        if rank(x) == rank(full):  # no element raises a full rank
            return full
        return x | sum(
            1 << i for i in range(ground.size)
            if not x >> i & 1 and rank(x | 1 << i) == rank(x)
        )

    flat = closure(0)
    picks = [0]
    while flat != full:
        lowest = min(i for i in range(ground.size) if not flat >> i & 1)
        step = closure(flat | 1 << lowest)
        picks = [p | 1 << i for p in picks for i in bit_indices_oracle(step ^ flat)]
        flat = step
    if kind == "intersection":
        picks = [full ^ p for p in picks]
    family = SetFamily(ground, [Subset(ground, p) for p in picks])
    return None if family == m.bases else family
