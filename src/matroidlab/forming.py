"""Secondary bases, the rank-raising expansion operator, and forming families.

A secondary base A has rank r - 1, so A + e has rank r exactly when A + e is
a base.  One pass that deletes each element e from each base B therefore
yields every secondary base B - e with its expansion set
(`matroid.expansion_masks`, the map that also validates bases), with no rank
computation.  The map is the matroid's own (`Matroid._expansion_map`): both
unique classifiers and the intersection-minimality verdict read it, and the
forming family and every base's blocks (`_forming_blocks`, which the
base-relative checks and `matroidlab forming` read) are memo facts beside it.

`expansion` is the general operator for any subset X: the complement of the
closure of X, in one pass over the bases (`matroid._expansion_of`, which the
flag of flats in `classify` reads too).
"""

from __future__ import annotations

from .errors import NotABase, RankZero
from .matroid import Matroid, _expansion_of, memo_fact
from .setalgebra import SetFamily, Subset, _single_bits


def _expansions(m: Matroid) -> dict[int, int]:
    if m.rank == 0:
        raise RankZero("secondary bases are undefined at rank zero")
    return m._expansion_map()


def secondary_bases(m: Matroid) -> SetFamily:
    """All independent sets one element smaller than a base.

    Undefined for rank-zero matroids.  These are the keys of
    `expansion_masks`, so no independence scan is needed.
    """
    return SetFamily.from_masks(m.ground, _expansions(m))


def expansion(m: Matroid, x: Subset) -> Subset:
    """Elements whose addition raises the rank of `x` by one, for any subset.

    This is the complement of the closure of `x`, from one pass over the
    bases (`matroid._expansion_of`).  Always disjoint from `x` itself, since
    adding a present element leaves the rank unchanged.  On a secondary base
    it agrees with `expansion_masks`.
    """
    if x.ground != m.ground:
        raise ValueError("subset lives on a different ground set")
    return Subset(m.ground, _expansion_of(m.bases.masks(), x.mask))


@memo_fact("forming_family")
def forming_family(m: Matroid) -> SetFamily:
    """The forming family: expansion sets of all secondary bases, deduplicated.

    Returned as a plain canonically ordered `SetFamily`; `recover_partition`
    turns it into a `Partition` when its blocks partition the base support.
    """
    return SetFamily.from_masks(m.ground, _expansions(m).values())


def _blocks_wrt(exp: dict[int, int], base: int) -> list[int]:
    return [exp[base ^ bit] for bit in _single_bits(base)]


@memo_fact("forming_blocks")
def _forming_blocks(m: Matroid) -> list[tuple[int, list[int]]]:
    """Each base mask B of `m`, in canonical order, with its forming block masks.

    One mask per e in B, by ascending index: the expansion of B - e, kept per
    matroid (never mutate it).  No base is probed; `forming_family_wrt` alone
    does that.
    """
    exp = _expansions(m)
    return [(b, _blocks_wrt(exp, b)) for b in m.bases._order]


def forming_family_wrt(m: Matroid, b: Subset) -> SetFamily:
    """The forming family relative to the base `b`, as a `SetFamily`.

    Its blocks are the expansion sets of the secondary bases inside `b`, its
    one-element deletions.  Raises `RankZero` before `NotABase`.
    """
    exp = _expansions(m)
    if b not in m.bases:
        raise NotABase(f"{b} is not a base")
    return SetFamily.from_masks(m.ground, _blocks_wrt(exp, b.mask))
