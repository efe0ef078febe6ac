"""Secondary bases, the rank-raising expansion operator, and forming families."""

from __future__ import annotations

from .errors import NotABase, RankZero
from .matroid import Matroid
from .setalgebra import SetFamily, Subset


def secondary_bases(m: Matroid) -> SetFamily:
    """All independent sets one element smaller than a base.

    Undefined for rank-zero matroids.  Every such set arises by deleting one
    element from some base, so no independence scan is needed.
    """
    if m.rank == 0:
        raise RankZero("secondary bases are undefined at rank zero")
    seen: set[int] = set()
    for base in m.bases.masks():
        rest = base
        while rest:
            bit = rest & -rest
            rest ^= bit
            seen.add(base ^ bit)
    return SetFamily(m.ground, (Subset(m.ground, s) for s in seen))


def expansion(m: Matroid, x: Subset) -> Subset:
    """Elements whose addition raises the rank of `x` by one.

    Always disjoint from `x` itself, since adding a present element leaves the
    rank unchanged.
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
    return SetFamily(m.ground, {expansion(m, a) for a in secondary_bases(m)})


def forming_family_wrt(m: Matroid, b: Subset) -> SetFamily:
    """The forming family relative to the base `b`, as a `SetFamily`.

    Its blocks are the expansion sets of the secondary bases inside `b`,
    which are exactly the one-element deletions of `b`.
    """
    if m.rank == 0:
        raise RankZero("forming families are undefined at rank zero")
    if b not in m.bases:
        raise NotABase(f"{b} is not a base")
    blocks = set()
    rest = b.mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        blocks.add(expansion(m, Subset(m.ground, b.mask ^ bit)))
    return SetFamily(m.ground, blocks)
