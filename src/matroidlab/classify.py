"""Decision procedures for the matroid classes studied by this workbench.

Every classifier returns a ClassificationResult; a false verdict always
carries the canonically least counterexample, so failure output is identical
across runs.  Every search runs sequentially in canonical order.  The
minimality checks are guarded by a fixed cap of 20 bases
(`DEFAULT_SEARCH_CAP`).  Within the cap, a minimality verdict comes from the
flag-of-flats certificate (`union_minimal`, `intersection_minimal`): union
minimal means rank zero or unique expansion, and intersection minimal means
the same of the dual.  Only a false verdict's canonical witness needs the
exhaustive search over subfamilies of the base family, pruned by prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import RankZero, SearchCapExceeded, SupportMismatch
from .forming import _expansions, forming_family
from .matroid import Matroid, expansion_masks
from .setalgebra import (
    Partition,
    SetFamily,
    Subset,
    canonical_key,
    combination_number,
    is_partition,
    one_per_block,
    transversals,
)

DEFAULT_SEARCH_CAP = 20


@dataclass(frozen=True)
class ExpansionWitness:
    """Secondary base extended to a base by two distinct elements of one base."""

    secondary: Subset
    base: Subset
    e1: str
    e2: str


@dataclass(frozen=True)
class ExchangeWitness:
    """Two distinct replacements restoring a base after one removal."""

    base1: Subset
    base2: Subset
    removed: str
    y1: str
    y2: str


@dataclass(frozen=True)
class SubfamilyWitness:
    """A proper subfamily that is itself a base family with the same union/intersection."""

    subfamily: SetFamily


@dataclass(frozen=True)
class ClassificationResult:
    verdict: bool
    witness: ExpansionWitness | ExchangeWitness | SubfamilyWitness | None = None

    def __post_init__(self):
        if self.verdict != (self.witness is None):
            raise ValueError(
                f"verdict {self.verdict} is inconsistent with witness {self.witness!r}"
            )

    def __bool__(self) -> bool:
        return self.verdict


def is_unique_expansion(m: Matroid) -> ClassificationResult:
    """Does every secondary base extend into each base in at most one way?

    False as soon as some secondary base A and base B admit two distinct
    elements of B whose addition to A gives a base; the witness is the least
    such (A, B, e1, e2) in canonical order, computed once per matroid.
    """
    if m.rank == 0:
        raise RankZero("unique expansion is undefined at rank zero")
    return m._fact("unique_expansion", lambda: _unique_expansion(m))


def _unique_expansion(m: Matroid) -> ClassificationResult:
    exp = _expansions(m)
    ground = m.ground
    for a in sorted(exp, key=canonical_key):
        for b in m.bases:
            # the elements e of b with a + e a base
            both = exp[a] & b.mask
            if both & (both - 1):
                e1, e2 = Subset(ground, both).indices()[:2]
                return ClassificationResult(False, ExpansionWitness(
                    Subset(ground, a), b, ground.label(e1), ground.label(e2)
                ))
    return ClassificationResult(True, None)


def is_unique_exchange(m: Matroid) -> ClassificationResult:
    """After removing x from base1, is the repairing element of base2 unique?

    The repairs of (B1, B2, x) are the bits of B2 in the expansion mask of
    B1 - x, read from the matroid's memoized map at positive rank; a family
    whose first member is empty (rank zero) still gets its own map, since an
    unvalidated one may hold larger sets.  Vacuously true when no pair of
    bases offers two repairs (in particular for a rank-zero matroid); the
    witness is the least (B1, B2, x, y1, y2) otherwise.
    """
    exp = _expansions(m) if m.rank else expansion_masks(m.bases.masks())
    ground = m.ground
    for b1 in m.bases:
        for b2 in m.bases:
            rest = b1.mask & ~b2.mask
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                both = exp[b1.mask ^ xbit] & b2.mask
                if both & (both - 1):
                    y1, y2 = Subset(ground, both).indices()[:2]
                    return ClassificationResult(False, ExchangeWitness(
                        b1, b2, ground.label(xbit.bit_length() - 1),
                        ground.label(y1), ground.label(y2),
                    ))
    return ClassificationResult(True, None)


def _check_cap(m: Matroid) -> None:
    n = len(m.bases.sets)
    if n > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(
            f"{n} bases exceed the exhaustive search cap {DEFAULT_SEARCH_CAP}"
        )


def _minimality_search(m: Matroid, kind: str) -> ClassificationResult:
    """The capped, memoized exhaustive search of `kind` "union" or
    "intersection", whose boundary is the base support or the common
    intersection of the bases."""
    _check_cap(m)
    boundary = m.support() if kind == "union" else m.base_intersection()
    return m._fact(f"{kind}_minimal", lambda: _least_reduction(m, kind, boundary.mask))


def _requirements(b1: int, b2: int, position: Callable[[int, int], int]) -> Sequence[int]:
    """One mask of repair positions per exchange requirement of two bases.

    A requirement is (B1, B2, x) with x in B1 - B2, or the same with the two
    bases swapped; its repairs are the bases B1 - x + y, y in B2 - B1, and
    `position(mask, 0)` gives a base's position bit (0 for a non-base).
    """
    out = b1 & ~b2
    x1 = out & -out
    x2 = out ^ x1
    if not x2:
        return ()  # one swap apart: each repairs the other
    inn = b2 & ~b1
    if not x2 & (x2 - 1):
        # two swaps apart: B2 - y + x is B1 - x' + y' for the other x' and
        # y', so four lookups serve both ways round
        y1 = inn & -inn
        y2 = inn ^ y1
        r11 = position(b1 ^ x1 ^ y1, 0)
        r12 = position(b1 ^ x1 ^ y2, 0)
        r21 = position(b1 ^ x2 ^ y1, 0)
        r22 = position(b1 ^ x2 ^ y2, 0)
        return (r11 | r12, r21 | r22, r12 | r22, r11 | r21)
    reqs = []
    for base, rest, incoming in ((b1, out, inn), (b2, inn, out)):
        while rest:
            xbit = rest & -rest
            rest ^= xbit
            stripped = base ^ xbit
            r = 0
            cand = incoming
            while cand:
                ybit = cand & -cand
                cand ^= ybit
                r |= position(stripped | ybit, 0)
            reqs.append(r)
    return reqs


def _least_reduction(m: Matroid, kind: str, boundary: int) -> ClassificationResult:
    """The first proper subfamily that is a base family with the same boundary.

    Subfamilies are visited in decreasing size, then in `combinations` order
    of base positions within a size, so the first one found is the canonical
    witness.  The visit is a depth-first walk over positions that drops a
    prefix (its chosen bases, and the skipped ones below its last position)
    once no completion can succeed:

    - boundary: the chosen bases and every later one together miss part of
      the boundary (a support element for `union`; for `intersection`, an
      element outside the common intersection that no such base omits);
    - exchange: for chosen B1, B2 and x in B1 - B2, every repair
      B1 - x + y (y in B2 - B1) that is a base has been skipped.

    A complete subfamily whose every requirement has a chosen repair is
    exchange-closed by definition, so it needs no separate validation.  Sizes
    too small to cover the boundary are skipped by counting alone.  Nothing
    here relies on a theorem about the classes being decided.
    """
    masks = [s.mask for s in m.bases.sets]
    n = len(masks)
    if kind == "union":
        covers, target = masks, boundary
    else:
        # the intersection is the boundary iff the complements cover the rest
        full = (1 << m.ground.size) - 1
        covers, target = [full ^ b for b in masks], full ^ boundary
    # k covers of at most w elements cover at most k * w, so with w the widest
    # cover fewer than |target| / w bases cannot cover the target, in any
    # family (in a matroid every cover has the same size); when every cover
    # is empty the target is empty too, and w = 1 keeps the bound at 1
    widest = max(c.bit_count() for c in covers) or 1
    fewest = max(1, -(-target.bit_count() // widest))
    if fewest >= n:
        return ClassificationResult(True, None)
    reach = covers + [0]  # reach[t]: what the bases from position t on cover
    for t in range(n - 2, -1, -1):
        reach[t] |= reach[t + 1]
    where = None  # base mask -> position bit, built on first need
    # t * n + j (j < t) -> the pair's requirements, on its first visit
    repairs: list[Sequence[int] | None] = [None] * (n * n)
    picks: list[int] = []  # chosen positions, ascending
    stack = []  # (covered, pending, chosen) below each pick
    for size in range(n - 1, fewest - 1, -1):
        depth, t, covered, pending, chosen = 0, 0, 0, (), 0
        while True:
            last = n - size + depth  # highest position this depth may take
            leaf = depth + 1 == size
            if leaf:
                # the last pick must meet every waiting requirement at once
                need = -1
                for r in pending:
                    need &= r
            found = False
            while t <= last:
                if covered | reach[t] != target:
                    break  # later positions reach even less
                bit = 1 << t
                if leaf:
                    if not need & bit or covered | covers[t] != target:
                        t += 1
                        continue
                    still = None
                else:
                    # a waiting requirement is met by t, or dies for good
                    # once no repair lies past t
                    above = bit << 1
                    still = []
                    dead = False
                    for r in pending:
                        if r & bit:
                            continue
                        if r < above:
                            dead = True
                            break
                        still.append(r)
                    if dead:
                        break
                now = chosen | bit
                ok = True
                for j in picks:
                    reqs = repairs[t * n + j]
                    if reqs is None:
                        if where is None:
                            where = {b: 1 << i for i, b in enumerate(masks)}.get
                        reqs = repairs[t * n + j] = _requirements(masks[t], masks[j], where)
                    for r in reqs:
                        if r & now:
                            continue
                        if leaf or r < above:
                            ok = False
                            break
                        still.append(r)
                    if not ok:
                        break
                if ok:
                    found = True
                    break
                t += 1
            if found:
                picks.append(t)
                if leaf:
                    return ClassificationResult(False, SubfamilyWitness(
                        SetFamily.from_masks(m.ground, [masks[i] for i in picks])
                    ))
                stack.append((covered, pending, chosen))
                covered |= covers[t]
                pending = still
                chosen = now
                depth += 1
                t += 1
            elif depth:
                depth -= 1
                covered, pending, chosen = stack.pop()
                t = picks.pop() + 1
            else:
                break
    return ClassificationResult(True, None)


def union_minimal(m: Matroid) -> bool:
    """Is no proper subfamily of the bases a base family with the same union?

    The verdict alone, with no search: M is union minimal exactly when it has
    rank zero or is unique expansion.  Capped at 20 bases
    (`DEFAULT_SEARCH_CAP`) like the search, so the two refuse alike.

    Proof (not from the paper).  At rank zero the one base {} admits no
    proper nonempty subfamily.  A unique expansion matroid is union minimal
    by the paper's theorem (`thm_552`).  Conversely, let M have rank r > 0
    and take a maximal chain of flats cl({}) = F0 < F1 < ... < Fr = E.  Every
    transversal of the blocks Fi - Fi-1 (i = 1..r) is a base: each pick lies
    outside the flat before it, so the rank rises by one at every step.  The
    blocks cover the base support, since the loops are exactly F0, so the
    transversals are the bases of a one-per-block matroid inside B(M) with
    the same union.  If M is union minimal, B(M) is that family, so M is a
    one-per-block matroid and hence unique expansion (`thm_52`).
    """
    _check_cap(m)
    return m.rank == 0 or is_unique_expansion(m).verdict


def intersection_minimal(m: Matroid) -> bool:
    """Is no proper subfamily of the bases a base family with the same intersection?

    The verdict alone, with no search: by the paper's duality (`thm_334`) M
    is intersection minimal exactly when its dual is union minimal, that is
    when M* has rank zero or is unique expansion (see `union_minimal`).
    Capped at 20 bases (`DEFAULT_SEARCH_CAP`).
    """
    _check_cap(m)
    return m.rank == m.ground.size or is_unique_expansion(m.dual()).verdict


def _witness(m: Matroid, kind: str) -> ClassificationResult:
    """The search's canonical witness, for a matroid the certificate says is
    not `kind` minimal; RuntimeError if the search finds none."""
    res = _minimality_search(m, kind)
    if res.verdict:
        raise RuntimeError(
            f"{m} is not {kind} minimal by its certificate, but the search finds no witness"
        )
    return res


def is_union_minimal(m: Matroid) -> ClassificationResult:
    """`union_minimal` with the canonical witness of a false verdict.

    A true verdict returns with no search.  A false one runs the exhaustive
    search over the proper nonempty subfamilies, pruned by prefix, whose
    result is kept in the matroid's facts memo; the search must find a
    witness, or RuntimeError.
    """
    if union_minimal(m):
        return ClassificationResult(True, None)
    return _witness(m, "union")


def is_intersection_minimal(m: Matroid) -> ClassificationResult:
    """`intersection_minimal` with the canonical witness of a false verdict.

    Answered like `is_union_minimal`: no search for a true verdict, the
    memoized search for a false one's witness, RuntimeError if it finds none.
    """
    if intersection_minimal(m):
        return ClassificationResult(True, None)
    return _witness(m, "intersection")


def recover_partition(m: Matroid) -> Partition | None:
    """The forming family as a partition of the base support, when it is one.

    When present this is the unique partition of the support that every base
    meets exactly once per block.  Computed once per matroid, `None` included.
    """
    fam = forming_family(m)
    return m._fact(
        "partition",
        lambda: Partition(fam) if is_partition(fam, m.support()) else None,
    )


def is_transversal_of(m: Matroid, p: Partition) -> bool:
    """Does every base meet every block of `p` exactly once?

    `p` must partition the union of the bases.  A true verdict is re-verified
    against its two consequences: the base family equals the one-per-block
    transversal product of `p`, and the base count equals the product of the
    block sizes; RuntimeError if either does not hold.
    """
    if p.ground != m.ground:
        raise SupportMismatch("partition lives on a different ground set")
    if p.support() != m.support():
        raise SupportMismatch(
            f"partition support {p.support()} differs from base support {m.support()}"
        )
    verdict = one_per_block(m.bases.masks(), p)
    if verdict:
        if m.bases != transversals(p):
            raise RuntimeError(
                f"bases of a one-per-block matroid differ from the transversal product of {p}"
            )
        if len(m.bases) != combination_number(p):
            raise RuntimeError(
                f"{len(m.bases)} bases but block size product {combination_number(p)}"
            )
    return verdict
