"""Secondary bases, the rank-raising expansion operator, and forming families.

A secondary base A has rank r - 1, so A + e has rank r exactly when A + e is
a base.  One pass that deletes each element e from each base B therefore
yields every secondary base B - e with its expansion set
(`matroid.expansion_masks`, the map that also validates bases), with no rank
computation; `expansion` is the general operator for any subset.  A
matroid's expansion map and forming family are computed once and kept in its
memo (`Matroid._fact`), so the per-base forming families and the unique
expansion and exchange classifiers read the same map; `Matroid.from_bases`
seeds the map with the one its validation built.
"""

from __future__ import annotations

from .errors import NotABase, RankZero
from .matroid import EXPANSIONS_FACT, Matroid, expansion_masks
from .setalgebra import SetFamily, Subset


def _expansions(m: Matroid, what: str = "secondary bases") -> dict[int, int]:
    if m.rank == 0:
        raise RankZero(f"{what} are undefined at rank zero")
    # shared with every caller through the memo: read it, never mutate it
    return m._fact(EXPANSIONS_FACT, lambda: expansion_masks(m.bases.masks()))


def secondary_bases(m: Matroid) -> SetFamily:
    """All independent sets one element smaller than a base.

    Undefined for rank-zero matroids.  These are the keys of
    `expansion_masks`, so no independence scan is needed.
    """
    return SetFamily.from_masks(m.ground, _expansions(m))


def expansion(m: Matroid, x: Subset) -> Subset:
    """Elements whose addition raises the rank of `x` by one, for any subset.

    Always disjoint from `x` itself, since adding a present element leaves the
    rank unchanged.  On a secondary base it agrees with `expansion_masks`.
    """
    if x.ground != m.ground:
        raise ValueError("subset lives on a different ground set")
    r = m.rank_of(x)
    out = 0
    for i in range(m.ground.size):
        bit = 1 << i
        if bit & x.mask:
            continue
        if m.rank_of(Subset(m.ground, x.mask | bit)) == r + 1:
            out |= bit
    return Subset(m.ground, out)


def forming_family(m: Matroid) -> SetFamily:
    """The forming family: expansion sets of all secondary bases, deduplicated.

    Returned as a plain canonically ordered `SetFamily`; `recover_partition`
    turns it into a `Partition` when its blocks partition the base support.
    """
    exp = _expansions(m)
    return m._fact(
        "forming_family",
        lambda: SetFamily.from_masks(m.ground, exp.values()),
    )


def _forming_masks_wrt(m: Matroid, b: Subset) -> list[int]:
    """The block masks of the forming family relative to the base `b`.

    One mask per element of `b`, in ascending index order: the expansion
    mask of `b` minus that element, read off the matroid's cached expansion
    map.  The masks are pairwise distinct, since each holds its own element
    of `b` and no other.
    """
    exp = _expansions(m, "forming families")
    if b not in m.bases:
        raise NotABase(f"{b} is not a base")
    return [exp[b.mask ^ (1 << i)] for i in b.indices()]


def forming_family_wrt(m: Matroid, b: Subset) -> SetFamily:
    """The forming family relative to the base `b`, as a `SetFamily`.

    Its blocks are the expansion sets of the secondary bases inside `b`,
    which are exactly the one-element deletions of `b`.
    """
    return SetFamily.from_masks(m.ground, _forming_masks_wrt(m, b))
