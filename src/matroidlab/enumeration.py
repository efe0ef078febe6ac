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

Matroid counts grow super-exponentially, so the ground size is capped at 7.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import GroundSetTooLarge
from .matroid import Matroid, expansion_masks
from .setalgebra import GroundSet, SetFamily, mask_order_key

MAX_ENUMERATION_SIZE = 7

_GROUNDS: dict[int, GroundSet] = {}


def enumeration_ground(n: int) -> GroundSet:
    """The shared ground set {1..n} used by the enumerated population."""
    if n not in _GROUNDS:
        _GROUNDS[n] = GroundSet(str(i) for i in range(1, n + 1))
    return _GROUNDS[n]


def _linear_subclasses(hyperplanes: list[int], r: int, bases: tuple[int, ...]) -> list[int]:
    """Every linear subclass, as a bitmask over indices into `hyperplanes`."""
    colines: dict[int, int] = {}
    for i, h in enumerate(hyperplanes):
        for j in range(i + 1, len(hyperplanes)):
            meet = h & hyperplanes[j]
            if meet in colines:
                continue
            if max((b & meet).bit_count() for b in bases) == r - 2:
                colines[meet] = sum(
                    1 << k for k, g in enumerate(hyperplanes) if meet & ~g == 0
                )
    # a coline on exactly two hyperplanes constrains nothing; the others are
    # checked as soon as their last hyperplane is decided
    checks: list[list[int]] = [[] for _ in hyperplanes]
    for through in colines.values():
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
            if all(
                (pick & through).bit_count() <= 1 or pick & through == through
                for through in checks[i]
            ):
                stack.append((i + 1, pick))
    return found


def _extensions(bases: tuple[int, ...], r: int, n: int) -> Iterator[list[int]]:
    """Base families of every matroid on n elements whose deletion of the
    element n - 1 has the given bases (on n - 1 elements) and rank r."""
    e = 1 << (n - 1)
    yield [b | e for b in bases]
    exp = expansion_masks(bases)
    hyperplanes: list[int] = []
    where: dict[int, int] = {}
    closure_of = []
    for grows in exp.values():
        # the closure of a secondary base is the complement of its expansion set
        h = (e - 1) & ~grows
        if h not in where:
            where[h] = len(hyperplanes)
            hyperplanes.append(h)
        closure_of.append(where[h])
    for subclass in _linear_subclasses(hyperplanes, r, bases):
        yield [*bases, *(
            s | e for s, h in zip(exp, closure_of) if not subclass >> h & 1
        )]


@lru_cache(maxsize=None)
def _families(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per rank 0..n, the canonically sorted base-mask families on n elements.

    Members sort by `setalgebra.mask_order_key(n)`, each mask's position in
    the shared byte table of canonical positions, and families by the tuple
    of their members' positions, which orders them as their canonical keys do.
    """
    if n == 0:
        return (((0,),),)
    key = mask_order_key(n)
    by_rank: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for r, families in enumerate(_families(n - 1)):
        for bases in families:
            for fam in _extensions(bases, r, n):
                by_rank[fam[0].bit_count()].append(
                    tuple(sorted(fam, key=key))
                )
    for families in by_rank:
        families.sort(key=lambda fam: tuple(map(key, fam)))
    return tuple(tuple(families) for families in by_rank)


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
