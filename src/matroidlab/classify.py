"""Decision procedures for the matroid classes studied by this workbench.

Every classifier returns a ClassificationResult, its verdict decided first
with no witness; a false verdict always carries a witness, identical across
runs.  The unique-expansion and unique-exchange verdicts come from one pass
over the distinct expansion masks (`matroid._fork_verdicts`), kept per
matroid (`_verdicts`); a false one is scanned for its canonically least
witness.  The minimality verdicts come from certificates at any size: union
minimality from the flag of flats (`union_minimal`), which reads that pass
too, and intersection minimality from the matroid's own cocircuits, the
distinct expansion masks, with no dual built (`intersection_minimal`).  A
false one's witness is the reduction the flag builds (`_flag_witness`, on
the dual for intersection), with no search, built by the one function
(`_flag_transversals`) whose result the registry's `thm_334` validates.  The
exhaustive search over subfamilies of the bases (`_minimality_search`), one
depth-first walk pruned by prefix and bounded by the largest reduction found
so far, serves the theorem registry alone, and it alone is guarded by a
fixed cap of 20 bases (`DEFAULT_SEARCH_CAP`).  Only the union search is kept
per matroid (`_union_search`), since `thm_334` and `thm_552` both read it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import RankZero, SearchCapExceeded
from .forming import forming_family
from .matroid import Matroid, _expansion_of, _fork_verdicts, _least_triple, memo_fact
from .setalgebra import (
    Partition,
    SetFamily,
    Subset,
    _bit_indices,
    _single_bits,
    is_partition,
    mask_order_key,
    one_per_block,
)

DEFAULT_SEARCH_CAP = 20


class ExpansionWitness(NamedTuple):
    """Secondary base extended to a base by two distinct elements of one base."""

    secondary: Subset
    base: Subset
    e1: str
    e2: str


class ExchangeWitness(NamedTuple):
    """Two distinct replacements restoring a base after one removal."""

    base1: Subset
    base2: Subset
    removed: str
    y1: str
    y2: str


class SubfamilyWitness(NamedTuple):
    """A proper subfamily that is itself a base family with the same union/intersection."""

    subfamily: SetFamily


class _Result(NamedTuple):
    verdict: bool
    witness: ExpansionWitness | ExchangeWitness | SubfamilyWitness | None = None


class ClassificationResult(_Result):
    __slots__ = ()

    def __new__(
        cls,
        verdict: bool,
        witness: ExpansionWitness | ExchangeWitness | SubfamilyWitness | None = None,
    ) -> ClassificationResult:
        if verdict != (witness is None):
            raise ValueError(f"verdict {verdict} is inconsistent with witness {witness!r}")
        return super().__new__(cls, verdict, witness)

    def __bool__(self) -> bool:
        return self.verdict


_TRUE = ClassificationResult(True, None)


@memo_fact("unique_verdicts")
def _verdicts(m: Matroid) -> tuple[bool, bool]:
    """(unique expansion, unique exchange) of `m`, from one pass over its
    distinct expansion masks (`matroid._fork_verdicts`), computed once per
    matroid; the memo holds the two verdicts and no witness."""
    return _fork_verdicts(m.bases.masks(), m._expansion_map())


def is_unique_expansion(m: Matroid) -> ClassificationResult:
    """Does every secondary base extend into each base in at most one way?

    The verdict comes from the one-pass `_verdicts`.  Only a false one is
    scanned for its witness, the least (A, B, e1, e2) in canonical order such
    that A + e1 and A + e2 are bases.
    """
    if m.rank == 0:
        raise RankZero("unique expansion is undefined at rank zero")
    if _verdicts(m)[0]:
        return _TRUE
    return _expansion_witness(m)


def _expansion_witness(m: Matroid) -> ClassificationResult:
    """The canonical witness of a false unique-expansion verdict: secondary
    bases in canonical order, then bases; RuntimeError if there is none."""
    exp = m._expansion_map()
    ground = m.ground
    for a in sorted(exp, key=mask_order_key(ground.size)):
        for b in m.bases._order:
            # the elements e of b with a + e a base
            both = exp[a] & b
            if both & (both - 1):
                e1, e2 = _bit_indices(both)[:2]
                return ClassificationResult(False, ExpansionWitness(
                    Subset(ground, a), Subset(ground, b), ground.label(e1), ground.label(e2)
                ))
    raise RuntimeError(f"{m} is not unique expansion, but the scan finds no witness")


def is_unique_exchange(m: Matroid) -> ClassificationResult:
    """After removing x from base1, is the repairing element of base2 unique?

    The repairs of (B1, B2, x) are the bits of B2 in the expansion mask of
    B1 - x.  The verdict comes from the one-pass `_verdicts`; it is
    vacuously true when no pair of bases offers two repairs (in particular
    for a rank-zero matroid).  Only a false one is scanned for its witness,
    the least (B1, B2, x, y1, y2), its triple named by the exchange
    validator's own scan (`matroid._least_triple`); RuntimeError if that scan
    finds none.
    """
    if _verdicts(m)[1]:
        return _TRUE
    exp = m._expansion_map()
    triple = _least_triple(m.bases._order, exp, forked=True)
    if triple is None:
        raise RuntimeError(f"{m} is not unique exchange, but the scan finds no witness")
    b1, b2, x = triple
    ground = m.ground
    y1, y2 = _bit_indices(exp[b1 ^ (1 << x)] & b2)[:2]
    return ClassificationResult(False, ExchangeWitness(
        Subset(ground, b1), Subset(ground, b2), ground.label(x),
        ground.label(y1), ground.label(y2),
    ))


def _minimality_search(m: Matroid, kind: str) -> ClassificationResult:
    """The capped exhaustive search of `kind` "union" or "intersection",
    over the bases or their complements; the registry's second route to the
    verdicts that the classifiers read off the certificate."""
    n = len(m.bases)
    if n > DEFAULT_SEARCH_CAP:
        raise SearchCapExceeded(
            f"{n} bases exceed the exhaustive search cap {DEFAULT_SEARCH_CAP}"
        )
    if kind == "union":
        return _union_search(m)
    # a subfamily keeps the common intersection of the bases exactly when its
    # complements keep the union of the complements
    full = (1 << m.ground.size) - 1
    return _least_reduction(m, [full ^ b for b in m.bases._order])


@memo_fact("union_minimal")
def _union_search(m: Matroid) -> ClassificationResult:
    """The union search, kept per matroid: `thm_334` and `thm_552` both read it."""
    return _least_reduction(m, m.bases._order)


def _requirements(
    b1: int, b2: int, exp: dict[int, int], where: dict[int, int]
) -> Sequence[int]:
    """One mask of repair positions per exchange requirement of two bases.

    A requirement is (B1, B2, x) with x in B1 - B2, or the same with the two
    bases swapped; its repairs are the bases B1 - x + y for the bits y of B2
    in the expansion mask exp[B1 - x], and `where` gives each base's
    position bit.
    """
    out, back = b1 & ~b2, b2 & ~b1
    if out and back and not out & (out - 1) and not back & (back - 1):
        return ()  # one swap apart: each repairs the other
    reqs = []
    for base, other, rest in ((b1, b2, out), (b2, b1, back)):
        for xbit in _single_bits(rest):
            stripped = base ^ xbit
            r = 0
            for ybit in _single_bits(exp[stripped] & other):
                r |= where[stripped | ybit]
            reqs.append(r)
    return reqs


def _least_reduction(m: Matroid, covers: Sequence[int]) -> ClassificationResult:
    """A largest proper subfamily of the bases that is a base family and
    whose covers (`covers` holds one mask per base, in base order) have the
    same union as all of them, the target.

    One recursive depth-first walk (`extend`) visits the ascending tuples of
    base positions in lexicographic order, which within a size is
    `combinations` order, and keeps a complete subfamily only when it is
    larger than the best so far: the result is the first of the largest size,
    the canonical witness.  The walk drops a prefix (its chosen bases, and the
    skipped ones below its last position) once no completion can succeed:

    - size: fewer positions are left than beat the best so far (`floor`),
      which starts below the fewest bases that can cover the target;
    - cover: the chosen covers and every later one together miss part of
      the target;
    - exchange: for chosen B1, B2 and x in B1 - B2, every repair
      B1 - x + y (y in B2 - B1) that is a base has been skipped.

    A subfamily that covers the target and has a chosen repair for every
    requirement is exchange-closed by definition, so it needs no separate
    validation.  Nothing here relies on a theorem about the classes being
    decided.
    """
    masks = m.bases._order
    n = len(masks)
    reach = [*covers, 0]  # reach[t]: what the bases from position t on cover
    for t in range(n - 2, -1, -1):
        reach[t] |= reach[t + 1]
    target = reach[0]
    # k covers of at most w elements cover at most k * w, so with w the widest
    # cover fewer than |target| / w bases cannot cover the target, in any
    # family (in a matroid every cover has the same size); when every cover
    # is empty the target is empty too, and w = 1 keeps the bound at 1
    widest = max(c.bit_count() for c in covers) or 1
    floor = max(1, -(-target.bit_count() // widest)) - 1
    if floor >= n - 1:
        return ClassificationResult(True, None)
    where = {b: 1 << i for i, b in enumerate(masks)}  # base mask -> position bit
    exp = m._expansion_map()
    # t * n + j (j < t) -> the pair's requirements, on its first visit; kept
    # because later prefixes revisit pairs: 45% of a sweep's reads hit it, and
    # without it the searches at n=8 take about twice as long (CPython 3.11)
    repairs: list[Sequence[int] | None] = [None] * (n * n)
    best: list[int] = []

    def extend(picks: list[int], covered: int, chosen: int, pending: Sequence[int]) -> None:
        """Extend the ascending positions `picks` (covering `covered`, with
        position bits `chosen`, owing the repair masks `pending`) by each
        later position in turn, keeping each complete proper extension larger
        than `floor` in `best`."""
        nonlocal floor, best
        size = len(picks) + 1  # the size once a next position is picked
        for t in range(picks[-1] + 1 if picks else 0, n):
            if size + n - t <= floor + 1 or covered | reach[t] != target:
                return  # later positions reach even less
            # a waiting requirement is met by t, or dies for good once no
            # repair lies past t
            bit = 1 << t
            above = bit << 1
            still = []
            for r in pending:
                if r & bit:
                    continue
                if r < above:
                    return
                still.append(r)
            now = chosen | bit
            ok = True
            for j in picks:
                reqs = repairs[t * n + j]
                if reqs is None:
                    reqs = repairs[t * n + j] = _requirements(masks[t], masks[j], exp, where)
                for r in reqs:
                    if r & now:
                        continue
                    if r < above:
                        ok = False
                        break
                    still.append(r)
                if not ok:
                    break
            if ok:
                picks.append(t)
                if floor < size < n and not still and covered | covers[t] == target:
                    floor, best = size, picks[:]
                extend(picks, covered | covers[t], now, still)
                picks.pop()

    extend([], 0, 0, ())
    # `extend` calls itself through its closure, a reference cycle that holds
    # `m`: break it, so reference counts alone free a streamed matroid
    del extend
    if not best:
        return ClassificationResult(True, None)
    return ClassificationResult(False, SubfamilyWitness(
        SetFamily._from_canonical(m.ground, [masks[i] for i in best])
    ))


def union_minimal(m: Matroid) -> bool:
    """Is no proper subfamily of the bases a base family with the same union?

    The verdict alone, with no search: M is union minimal exactly when it has
    rank zero or is unique expansion, at any number of bases.

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
    return m.rank == 0 or _verdicts(m)[0]


def _flag_blocks(m: Matroid) -> list[int]:
    """The blocks Fi - Fi-1 of the lowest maximal chain of flats of
    `union_minimal`'s proof, as masks: F0 = cl({}), and each next flat is the
    closure of the one before plus its lowest element outside.  Each closure
    is the ground set less an expansion (`matroid._expansion_of`).
    """
    masks = m.bases.masks()
    full = (1 << m.ground.size) - 1
    flat = full ^ _expansion_of(masks, 0)
    blocks = []
    while flat != full:
        rest = full ^ flat
        step = full ^ _expansion_of(masks, flat | (rest & -rest))
        blocks.append(step ^ flat)
        flat = step
    return blocks


def _flag_transversals(m: Matroid) -> tuple[list[int], list[int]]:
    """The blocks of `_flag_blocks(m)` and the masks of the bases that are
    transversals of them, in canonical order: the reduction of
    `union_minimal`'s proof, which `thm_334` validates and `_flag_witness`
    returns."""
    blocks = _flag_blocks(m)
    return blocks, [b for b in m.bases._order if one_per_block((b,), blocks)]


def intersection_minimal(m: Matroid) -> bool:
    """Is no proper subfamily of the bases a base family with the same intersection?

    The verdict alone, with no search and no dual: M is intersection minimal
    exactly when every distinct expansion mask of M has at most two
    elements, at any number of bases.  On a family that is not a matroid
    (built by `Matroid._trusted`) it still returns a bool, as
    `union_minimal` does.

    Proof (not from the paper).  By the paper's duality (`thm_334`) M is
    intersection minimal exactly when M* is union minimal.
    - A matroid N is union minimal exactly when every circuit of N has at
      most two elements.  By `union_minimal`'s proof and `thm_52`, N is union
      minimal exactly when it has rank zero or is one-per-block, and the
      circuits of such a matroid are its loops and the pairs inside one
      block.  Conversely, if every circuit has at most two elements, the
      non-loops fall into parallel classes, a set is independent exactly
      when it holds no loop and at most one element of each class, and the
      bases are the transversals of the classes.
    - The circuits of M* are the cocircuits of M.
    - The cocircuits of M are exactly the distinct expansion masks.  Every
      key A is a secondary base, whose closure is a hyperplane, and
      exp[A] = E - cl(A); every hyperplane H is cl(A) for a secondary base
      A inside H.  At rank zero the map is empty, and M* is free.
    """
    for g in m._expansion_map().values():
        if g.bit_count() > 2:
            return False
    return True


def _flag_witness(m: Matroid, kind: str) -> ClassificationResult:
    """The flag transversals (`_flag_transversals`) as a witness: those of
    `m` for "union", the complements of the dual's for "intersection".  A
    one-per-block family, it is inclusion-minimal; the registry's search
    finds a largest one.  RuntimeError if the transversals are not a proper
    nonempty subfamily."""
    x = m if kind == "union" else m.dual()
    kept = _flag_transversals(x)[1]
    if not 0 < len(kept) < len(x.bases):
        raise RuntimeError(
            f"{m} is not {kind} minimal, but the flag of flats finds no witness"
        )
    if kind == "intersection":
        full = (1 << m.ground.size) - 1
        kept = [full ^ b for b in kept]
    witness = SubfamilyWitness(SetFamily.from_masks(m.ground, kept))
    return ClassificationResult(False, witness)


def is_union_minimal(m: Matroid) -> ClassificationResult:
    """`union_minimal` with the flag transversals (`_flag_witness`) as a
    false verdict's witness: no search, at any size."""
    if union_minimal(m):
        return _TRUE
    return _flag_witness(m, "union")


def is_intersection_minimal(m: Matroid) -> ClassificationResult:
    """`intersection_minimal` with the complements of the dual's flag
    transversals (`_flag_witness`) as a false verdict's witness: no search,
    at any size, and only a false verdict builds the dual."""
    if intersection_minimal(m):
        return _TRUE
    return _flag_witness(m, "intersection")


@memo_fact("partition")
def recover_partition(m: Matroid) -> Partition | None:
    """The forming family as a partition of the base support, when it is one.

    When present this is the unique partition of the support that every base
    meets exactly once per block.  Computed once per matroid, `None` included.
    At rank zero there is no forming family: every call raises `RankZero`
    with the forming family's message, and nothing is stored.
    """
    fam = forming_family(m)
    return Partition(fam) if is_partition(fam, m.support()) else None
