"""Exhaustive enumeration of every labeled matroid on a small ground set.

The population on {1..n} is grown one element at a time by single-element
extension (Crapo, "Single-element extensions of matroids", J. Res. NBS 69B,
1965; Mayhew & Royle, "Matroids with nine elements", JCTB 98, 2008).  Every
matroid N on n elements has a unique deletion M = N \\ n on n - 1 elements,
and N is either M with n added as a coloop, or the extension of M cut out by
one linear subclass of M's hyperplanes: a set L of hyperplanes such that
whenever two members of L meet in a coline (a flat of rank r - 2), every
hyperplane through that coline is in L.  The extension by L keeps M's bases
and adds s + n for each secondary base s whose closure is not in L; L = all
hyperplanes makes n a loop, L = {} puts n in general position.  Extending
every matroid on n - 1 elements by its coloop and by each of its linear
subclasses therefore yields every matroid on n elements exactly once.  The
hyperplanes are the complements of the expansion sets of the secondary bases
(s + i is a base exactly when i lies outside cl(s)), read from the same map
as the forming family (`matroid.expansion_masks`).

Everything here works on bitmasks and never calls the validating constructor
(Matroid.from_bases) or its exchange test, so the two routes stay independent
and can cross-check each other: the test suite compares this enumeration
against oracles that push every candidate family through Matroid.from_bases.

The families are built on canonical positions: each member is held as its
position in canonical order (`setalgebra._BYTE_RANK`), so a whole family is
an int tuple that sorts as its canonical key does, with no key function.
The byte table covers every mask of at most 8 elements, so the build needs
n <= 8.  Matroid counts grow super-exponentially, so the ground size is
capped at 7.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .errors import GroundSetTooLarge
from .matroid import Matroid, expansion_masks
from .setalgebra import _BYTE_RANK, _BYTE_UNRANK, GroundSet, SetFamily

MAX_ENUMERATION_SIZE = 7


@cache
def enumeration_ground(n: int) -> GroundSet:
    """The shared ground set {1..n} used by the enumerated population."""
    return GroundSet(str(i) for i in range(1, n + 1))


def _linear_subclasses(hyperplanes: list[int], r: int, bases: tuple[int, ...]) -> list[int]:
    """Every linear subclass, as a bitmask over indices into `hyperplanes`."""
    # each distinct meet of two hyperplanes is ranked once, and maps to the
    # hyperplanes through it when it is a coline, else to 0; two distinct
    # hyperplanes meet in rank at most r - 2, so the meet is a coline exactly
    # when some base holds r - 2 of its elements
    meets: dict[int, int] = {}
    for i, h in enumerate(hyperplanes):
        for j in range(i + 1, len(hyperplanes)):
            meet = h & hyperplanes[j]
            if meet in meets:
                continue
            meets[meet] = 0
            for b in bases:
                if (b & meet).bit_count() == r - 2:
                    through = 0
                    for k, g in enumerate(hyperplanes):
                        if meet & g == meet:
                            through |= 1 << k
                    meets[meet] = through
                    break
    # a coline on exactly two hyperplanes constrains nothing; the others are
    # checked as soon as their last hyperplane is decided
    checks: list[list[int]] = [[] for _ in hyperplanes]
    for through in meets.values():
        if through.bit_count() > 2:
            checks[through.bit_length() - 1].append(through)
    found = []
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(hyperplanes):
            found.append(chosen)
            continue
        for pick in (chosen, chosen | 1 << i):
            # two hyperplanes through a coline bring in all of them
            for through in checks[i]:
                both = pick & through
                if both & (both - 1) and both != through:
                    break
            else:
                stack.append((i + 1, pick))
    return found


def _extensions(bases: tuple[int, ...], r: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every matroid on n elements whose deletion of the element n - 1 has the
    given bases (on n - 1 elements) and rank r: the coloop extension first,
    then one per linear subclass.  Each comes as the sorted tuple of its
    bases' canonical positions (`setalgebra._BYTE_RANK`).
    """
    e = 1 << (n - 1)
    position = _BYTE_RANK
    yield tuple(sorted([position[b | e] for b in bases]))
    kept = [position[b] for b in bases]
    # the new bases s + e, grouped by the hyperplane cl(s), the complement of
    # the expansion set of the secondary base s
    groups: dict[int, list[int]] = {}
    for s, grows in expansion_masks(bases).items():
        h = (e - 1) & ~grows
        if h in groups:
            groups[h].append(position[s | e])
        else:
            groups[h] = [position[s | e]]
    for subclass in _linear_subclasses(list(groups), r, bases):
        members = kept.copy()
        for k, added in enumerate(groups.values()):
            if not subclass >> k & 1:
                members += added
        members.sort()
        yield tuple(members)


@cache
def _families(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per rank 0..n, the canonically sorted base-mask families on n elements.

    The build works on canonical positions from start to end: each family
    is the sorted tuple of its members' positions (`setalgebra._BYTE_RANK`),
    and the families of a rank sort as plain int tuples, with no key
    function, which orders them as their canonical keys do.  The byte table
    holds the position of every mask of at most 8 elements, so the build
    needs n <= 8.  Each family is then read back to masks through
    `_BYTE_UNRANK`, one list slot at a time, so no second copy of a rank is
    alive.
    """
    if n == 0:
        return (((0,),),)
    by_rank: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for r, families in enumerate(_families(n - 1)):
        for bases in families:
            extensions = _extensions(bases, r, n)
            by_rank[r + 1].append(next(extensions))
            by_rank[r] += extensions
    for families in by_rank:
        families.sort()
        for i, positions in enumerate(families):
            families[i] = tuple(map(_BYTE_UNRANK.__getitem__, positions))
    return tuple(map(tuple, by_rank))


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATION_SIZE:
        raise GroundSetTooLarge(
            f"enumeration supports 1..{MAX_ENUMERATION_SIZE} elements, got {n}"
        )


def enumerate_matroids(n: int, rank: int | None = None) -> Iterator[Matroid]:
    """Every labeled matroid on the ground set {1..n}, exactly once.

    Streams in canonical order: rank ascending, then the canonical order of
    the base families.  `rank` restricts the stream to a single rank.  `n` is
    checked at the call, before the first matroid is asked for.
    """
    _check_size(n)
    ground = enumeration_ground(n)
    ranks = range(n + 1) if rank is None else [rank]
    return (
        Matroid._trusted(ground, SetFamily._from_canonical(ground, fam))
        for r in ranks
        if 0 <= r <= n
        for fam in _families(n)[r]
    )


def count_matroids(n: int, rank: int | None = None) -> int:
    """Number of labeled matroids on {1..n}, optionally of one rank; 0 for a
    rank outside 0..n.  Counts the cached mask families, building no matroid.
    """
    _check_size(n)
    if rank is None:
        return sum(map(len, _families(n)))
    return len(_families(n)[rank]) if 0 <= rank <= n else 0
