"""Decision procedures for the matroid classes studied by this workbench.

Every classifier returns a ClassificationResult; a false verdict always
carries the canonically least counterexample, so failure output is identical
across runs.  Every search runs sequentially in canonical order.  The
minimality checks are exhaustive searches over subfamilies of the base family
and are therefore guarded by a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .errors import RankZero, SearchCapExceeded, SupportMismatch
from .forming import _expansions, forming_family
from .matroid import Matroid, first_exchange_violation
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

    Vacuously true when no pair of bases offers two repairs (in particular for
    rank zero); the witness is the least (B1, B2, x, y1, y2) otherwise.
    """
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
                            return ClassificationResult(False, ExchangeWitness(
                                b1, b2, ground.label(x),
                                ground.label(first), ground.label(y),
                            ))
                        first = y
    return ClassificationResult(True, None)


def _minimality_search(
    m: Matroid, same_boundary: Callable[[Iterable[int]], bool], cap: int
) -> ClassificationResult:
    bases = m.bases.sets
    if len(bases) > cap:
        raise SearchCapExceeded(
            f"{len(bases)} bases exceed the exhaustive search cap {cap}"
        )
    # Decreasing size, canonical order within a size; the first valid
    # subfamily found is the canonical witness.
    for k in range(len(bases) - 1, 0, -1):
        for combo in combinations(bases, k):
            masks = [s.mask for s in combo]
            if same_boundary(masks) and (
                first_exchange_violation(masks, frozenset(masks)) is None
            ):
                return ClassificationResult(
                    False, SubfamilyWitness(SetFamily(m.ground, combo))
                )
    return ClassificationResult(True, None)


def is_union_minimal(m: Matroid, cap: int = DEFAULT_SEARCH_CAP) -> ClassificationResult:
    """Is no proper subfamily of the bases a base family with the same union?

    Exhaustive over all proper nonempty subfamilies, so the base family size
    is capped (default 20, about a million subfamilies).
    """
    support = m.support().mask

    def same_union(masks: Iterable[int]) -> bool:
        u = 0
        for x in masks:
            u |= x
        return u == support

    return _minimality_search(m, same_union, cap)


def is_intersection_minimal(
    m: Matroid, cap: int = DEFAULT_SEARCH_CAP
) -> ClassificationResult:
    """Is no proper subfamily of the bases a base family with the same intersection?

    Capped like `is_union_minimal`.
    """
    common = m.base_intersection().mask
    full = (1 << m.ground.size) - 1

    def same_intersection(masks: Iterable[int]) -> bool:
        c = full
        for x in masks:
            c &= x
        return c == common

    return _minimality_search(m, same_intersection, cap)


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
