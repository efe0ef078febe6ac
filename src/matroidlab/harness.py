"""Registry-driven verification of the theorem catalog over matroid populations.

The registry holds one check per cataloged statement.  A check is one
checker function, which returns None on success or a human-readable failure
detail, under the `_theorem` decorator, which names its id, its statement and
the matroids it applies to (statements with hypotheses skip the rest rather
than vacuously passing them).  The checkers register in definition order, so
a check's place in this file is its place in the report.  `verify` runs a
registry over a population and produces a deterministic report; failures are
report content, never errors.

The worked examples bundled here are small matroids with machine-checkable
expected facts, including the negative ones (non-membership in a class, with
the exact canonical witness).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from math import comb, prod
from time import perf_counter
from typing import Callable, Iterable, Iterator

from .classify import (
    ExchangeWitness,
    ExpansionWitness,
    _flag_transversals,
    _minimality_search,
    _verdicts,
    is_unique_exchange,
    is_unique_expansion,
    recover_partition,
)
from .errors import AxiomError, ExchangeFailure, SearchCapExceeded
from .forming import _forming_blocks, forming_family
from .matroid import (
    Matroid,
    are_isomorphic,
    first_exchange_violation,
    make_partition_matroid,
    make_unique_partition_matroid,
    memo_fact,
)
from .setalgebra import (
    GroundSet,
    Partition,
    SetFamily,
    Subset,
    _disjoint_union,
    _partition_masks,
    _transversal_masks,
    combination_number,
    is_covering,
    is_partition,
    low,
    one_per_block,
    transversals,
)


@dataclass(frozen=True)
class TheoremCheck:
    """One verifiable statement: applicability predicate plus checker.

    `applies` must be a pure function of the matroid: `verify` evaluates
    each distinct predicate once per matroid and gives its verdict to every
    check that shares it.
    """

    check_id: str
    statement: str
    applies: Callable[[Matroid], bool]
    run: Callable[[Matroid], str | None]


def _always(m: Matroid) -> bool:
    return True


def _rank_positive(m: Matroid) -> bool:
    return m.rank > 0


def _expansion_unique(m: Matroid) -> bool:
    return m.rank > 0 and _verdicts(m)[0]


# the checks in definition order, which is catalog and report order; a list
# while the checkers below register, then frozen after the last of them
_REGISTRY: list[TheoremCheck] = []


def _theorem(
    check_id: str, statement: str, applies: Callable[[Matroid], bool] = _always
) -> Callable[[Callable[[Matroid], str | None]], Callable[[Matroid], str | None]]:
    """Register the decorated checker as the check `check_id`, after every
    check registered above it, and return it unchanged.  The statement is an
    argument, not a docstring, since `python -OO` strips docstrings and the
    statement is report output."""
    def register(run: Callable[[Matroid], str | None]) -> Callable[[Matroid], str | None]:
        _REGISTRY.append(TheoremCheck(check_id, statement, applies, run))
        return run

    return register


class _MissingFact(Exception):
    """A fact the check's hypothesis implies is absent: a failure of that matroid."""


def _recovered(m: Matroid) -> Partition:
    p = recover_partition(m)
    if p is None:
        raise _MissingFact("the forming family does not partition the base support")
    return p


@memo_fact("one_per_block_matroid")
def _one_per_block_matroid(m: Matroid) -> Matroid:
    """The recovered partition's one-per-block matroid: six checks compare against it."""
    return make_unique_partition_matroid(m.ground, _recovered(m))


@memo_fact("capped_matroid")
def _capped_matroid(m: Matroid) -> Matroid:
    """The cap-1 partition matroid of the recovered partition, which
    `prop_302_304` and `prop_303` both read."""
    p = _recovered(m)
    return make_partition_matroid(m.ground, p, (1,) * len(p))


def _definitional_scan(
    masks: frozenset[int], support: Subset, blocks: Iterable[Subset],
    caps: Iterable[int] | None = None, complement: bool = False,
) -> tuple[Subset, bool] | None:
    """The least subset X, with its membership in the base masks `masks`,
    where that membership differs from the description: X (its complement,
    with `complement`) lies in `support` and meets each block in its cap of
    elements, one by default.  With no base rejected and disjoint blocks, the
    bases are the described family exactly when they number prod C(|k|, c),
    times 2 per support bit in no block; else the described sets are walked
    upward until one is not a base or they pass the least rejected base."""
    ground, s = support.ground, support.mask
    flip = ground.full().mask if complement else 0
    quotas = [(k.mask & s, c) for k, c in zip(blocks, caps or repeat(1))]
    rejected, tests = [], [(~s, 0), *quotas]  # no bit outside the support
    for b in masks:
        x = b ^ flip
        for k, c in tests:  # a loop, not any(): see `_described`
            if (x & k).bit_count() != c:
                rejected.append(b)
                break
    union = _disjoint_union(k for k, _ in quotas)
    if not rejected and union is not None:
        count = prod(comb(k.bit_count(), c) for k, c in quotas)
        if len(masks) == count << (s & ~union).bit_count():
            return None
    least = min(rejected, default=1 << ground.size)
    if complement:  # X then holds every bit outside the support, and |k| - c of k
        quotas = [(k, k.bit_count() - c) for k, c in quotas]
    for x in _described(s, quotas, flip & ~s):
        if x > least:
            break
        if x not in masks:
            return Subset(ground, x), False
    return (Subset(ground, least), True) if rejected else None


def _described(support: int, quotas: list[tuple[int, int]], chosen: int) -> Iterator[int]:
    """`chosen` plus each submask of `support` meeting each block k of `quotas` in c
    bits, ascending: bits are decided from the top on one explicit stack, the
    prefix without the top bit popped first, dropping a prefix no count fits."""
    stack = [(support, chosen)]
    while stack:
        rest, x = stack.pop()
        for k, c in quotas:  # a loop, not any(): the generator doubled the walk's cost
            if not 0 <= c - (x & k).bit_count() <= (rest & k).bit_count():
                break
        else:
            if rest:
                top = 1 << rest.bit_length() - 1
                stack += (rest ^ top, x | top), (rest ^ top, x)
            else:
                yield x


@_theorem("prop_100", "any two bases have the same size")
def _check_prop_100(m: Matroid) -> str | None:
    sizes = {len(b) for b in m.bases}
    if len(sizes) > 1:
        return f"bases of different sizes {sorted(sizes)}"
    return None


@_theorem("thm_123", "for bases B1, B2 and x in B1-B2 some y in B2-B1 makes (B2-{y})+{x} a base")
def _check_thm_123(m: Matroid) -> str | None:
    # (B2-{y})+{x} is a base exactly when (C2-{x})+{y} is a complement of one,
    # for Ci the complement of Bi: base exchange on the complement family,
    # which the dual validates; its violation (C2, C1, x) names the triple
    try:
        m.dual()
    except ExchangeFailure as exc:
        full = m.ground.full().mask
        b1, b2 = (m.ground.from_mask(full ^ c.mask) for c in (exc.base2, exc.base1))
        return f"no y in {b2}-{b1} with ({b2}-{{y}})+{{{exc.element}}} a base"
    return None


@_theorem("prop_341", "the forming family relative to any base has exactly rank-many blocks", _rank_positive)
def _check_prop_341(m: Matroid) -> str | None:
    for b, blocks in _forming_blocks(m):
        count = len(set(blocks))
        if count != m.rank:
            return f"|forming family wrt {b}| = {count} != rank {m.rank}"
    return None


# cannot fail: the first base alone gives r distinct blocks, exp[B - e] per e
@_theorem("cor_423", "the forming family has at least rank-many blocks", _rank_positive)
def _check_cor_423(m: Matroid) -> str | None:
    fam = forming_family(m)
    if len(fam) < m.rank:
        return f"|forming family| = {len(fam)} < rank {m.rank}"
    return None


# cannot fail: each e of a base B lies in exp[B - e], and blocks hold only such e
@_theorem("prop_46", "the union of the forming family equals the union of the bases", _rank_positive)
def _check_prop_46(m: Matroid) -> str | None:
    u = forming_family(m).union()
    if u != m.support():
        return f"union of forming family {u} != base support {m.support()}"
    return None


@_theorem("prop_124", "the union of every base-relative forming family equals the union of the bases",
          _rank_positive)
def _check_prop_124(m: Matroid) -> str | None:
    support = m.support()
    for b, blocks in _forming_blocks(m):
        u = 0
        for k in blocks:
            u |= k
        if u != support.mask:
            got = m.ground.from_mask(u)
            return f"union of forming family wrt {b} is {got} != {support}"
    return None


# cannot fail: each block exp[B - e] holds e and no other element of B.
# Every element of B lies in exactly one block exactly when the traces k & B
# of the blocks are pairwise disjoint and cover B, one mask pass per base;
# only a failing base is counted element by element, to name the element
@_theorem("lemma_e", "each element of a base lies in exactly one block of that base's forming family",
          _rank_positive)
def _check_lemma_e(m: Matroid) -> str | None:
    for b, blocks in _forming_blocks(m):
        bm = b.mask
        seen = 0
        # inline: through `_disjoint_union` this pass read 9-33% slower warm over the sweep
        for k in blocks:
            trace = k & bm
            if trace & seen:
                break
            seen |= trace
        else:
            if seen == bm:
                continue
        for i in b.indices():
            hits = sum(k >> i & 1 for k in blocks)
            if hits != 1:
                e, fam = m.ground.label(i), SetFamily.from_masks(m.ground, blocks)
                return f"element {e} of base {b} lies in {hits} blocks of {fam}"
    return None


@_theorem("lemma_66", "at rank one every base-relative forming family is the single block of all base"
          " elements", lambda m: m.rank == 1)
def _check_lemma_66(m: Matroid) -> str | None:
    support = m.support()
    for b, blocks in _forming_blocks(m):
        if blocks != [support.mask]:
            fam = SetFamily.from_masks(m.ground, blocks)
            target = SetFamily(m.ground, [support])
            return f"rank-one forming family wrt {b} is {fam}, not {target}"
    return None


@_theorem("thm_50", "unique expansion holds exactly when the forming family partitions the base support",
          _rank_positive)
def _check_thm_50(m: Matroid) -> str | None:
    ue = _verdicts(m)[0]
    part = recover_partition(m) is not None
    if ue != part:
        return f"unique expansion {ue} but forming family partitions support {part}"
    return None


@_theorem("prop_h", "in a unique expansion matroid every base meets every forming block exactly once",
          _expansion_unique)
def _check_prop_h(m: Matroid) -> str | None:
    fam = forming_family(m)
    if not one_per_block(m.bases.masks(), fam.masks()):
        return f"some base does not meet every block of {fam} exactly once"
    return None


@_theorem("thm_126", "unique expansion holds exactly when the forming family has rank-many blocks",
          _rank_positive)
def _check_thm_126(m: Matroid) -> str | None:
    ue = _verdicts(m)[0]
    count = len(forming_family(m))
    if ue != (count == m.rank):
        return f"unique expansion {ue} but |forming family| = {count}, rank {m.rank}"
    return None


@_theorem("prop_51_j", "in a unique expansion matroid the bases are exactly the support subsets meeting every"
          " forming block once", _expansion_unique)
def _check_prop_51_j(m: Matroid) -> str | None:
    hit = _definitional_scan(m.bases.masks(), m.support(), forming_family(m))
    if hit:
        x, member = hit
        return f"{x}: base membership {member} but one-per-block description {not member}"
    return None


@_theorem("prop_125", "the base family of a unique expansion matroid is the transversal product of its"
          " forming family", _expansion_unique)
def _check_prop_125(m: Matroid) -> str | None:
    product = transversals(_recovered(m))
    if m.bases != product:
        return f"bases {m.bases} != transversal product {product}"
    return None


@_theorem("prop_302_304", "capped-block and one-per-block constructions validate and agree",
          _expansion_unique)
def _check_prop_302_304(m: Matroid) -> str | None:
    if _one_per_block_matroid(m).bases != _capped_matroid(m).bases:
        return "one-per-block and cap-1 constructions disagree"
    return None


@_theorem("prop_303", "bases of a capped-block matroid are exactly the partition subsets hitting each block"
          " at its cap", _expansion_unique)
def _check_prop_303(m: Matroid) -> str | None:
    # the cap-1 matroid is shared with prop_302_304; a partition of single
    # elements has the same caps at full size, and is scanned once
    p = _recovered(m)
    unit = (1,) * len(p)
    for caps in dict.fromkeys((unit, tuple(len(b) for b in p))):
        built = _capped_matroid(m) if caps == unit else make_partition_matroid(m.ground, p, caps)
        if _definitional_scan(built.bases.masks(), p.support(), p, caps):
            return f"cap vector {caps}: built bases differ from the definitional filter"
    return None


@_theorem("prop_305_306", "bases of a one-per-block matroid are exactly the transversals of the partition",
          _expansion_unique)
def _check_prop_305_306(m: Matroid) -> str | None:
    p = _recovered(m)
    hit = _definitional_scan(_one_per_block_matroid(m).bases.masks(), p.support(), p)
    if hit:
        x, member = hit
        return f"{x}: membership {member} vs description {not member}"
    return None


@_theorem("prop_339", "dual bases of a one-per-block matroid contain the off-partition rest and miss one"
          " element per block", _expansion_unique)
def _check_prop_339(m: Matroid) -> str | None:
    # X holds the off-partition rest and misses one element per block exactly
    # when its complement is a transversal of the partition
    p = _recovered(m)
    hit = _definitional_scan(
        _one_per_block_matroid(m).dual().bases.masks(), p.support(), p, complement=True
    )
    if hit:
        x, member = hit
        return f"{x}: dual membership {member} vs description {not member}"
    return None


@_theorem("cor_336", "the base support of a one-per-block matroid is the partition support",
          _expansion_unique)
def _check_cor_336(m: Matroid) -> str | None:
    p = _recovered(m)
    upm = _one_per_block_matroid(m)
    if upm.support() != p.support():
        return f"base support {upm.support()} != partition support {p.support()}"
    return None


@_theorem("thm_321", "the forming family of a one-per-block matroid is its defining partition",
          _expansion_unique)
def _check_thm_321(m: Matroid) -> str | None:
    p = _recovered(m)
    back = forming_family(_one_per_block_matroid(m))
    if back != p.family:
        return f"forming family {back} != defining partition {p.family}"
    return None


@_theorem("thm_52", "unique expansion matroids are exactly the one-per-block partition matroids",
          _rank_positive)
def _check_thm_52(m: Matroid) -> str | None:
    ue = _verdicts(m)[0]
    upm_equal = (
        recover_partition(m) is not None
        and _one_per_block_matroid(m).bases == m.bases
    )
    if ue != upm_equal:
        return f"unique expansion {ue} but one-per-block construction match {upm_equal}"
    return None


@memo_fact("one_per_block_partitions")
def _one_per_block_partitions(m: Matroid) -> list[list[int]]:
    """The support partitions every base meets once per block, as block-mask
    lists in `_partition_masks` order, which `thm_33` and `prop_103` both read.

    Such a partition has one block per base element and no block holding two
    elements of one base, so the walk is bounded by both; each leaf is still
    confirmed, since an unvalidated family's members may differ in size.
    """
    base_masks = m.bases.masks()
    leaves = _partition_masks(m.support().mask, base_masks, m.rank)
    return [blocks for blocks in leaves if one_per_block(base_masks, blocks)]


@_theorem("thm_33", "bases meet every block of a support partition once exactly when they are its transversal"
          " product")
def _check_thm_33(m: Matroid) -> str | None:
    base_masks = m.bases.masks()
    # every product pick meets each disjoint block once, so a partition the
    # bases miss never matches its product
    for blocks in _one_per_block_partitions(m):
        if base_masks != frozenset(_transversal_masks(blocks)):
            return (
                f"partition {SetFamily.from_masks(m.ground, blocks)}: "
                "one-per-block True but product match False"
            )
    return None


def _applies_cor_109(m: Matroid) -> bool:
    return m.rank == 0 or recover_partition(m) is not None


@_theorem("cor_109", "when bases meet every block once, the base count is the product of the block sizes",
          _applies_cor_109)
def _check_cor_109(m: Matroid) -> str | None:
    # at rank zero the one base, the empty set, is the empty product of block sizes
    product = 1 if m.rank == 0 else combination_number(_recovered(m))
    if len(m.bases) != product:
        return f"|bases| = {len(m.bases)} != block size product {product}"
    return None


@_theorem("prop_103", "at most one support partition has every base meeting every block exactly once",
          _rank_positive)
def _check_prop_103(m: Matroid) -> str | None:
    hits = _one_per_block_partitions(m)
    recovered = recover_partition(m)
    if recovered is None:
        if hits:
            return f"no recovered partition but {len(hits)} one-per-block partitions exist"
    else:
        if len(hits) != 1 or frozenset(hits[0]) != recovered.family.masks():
            families = [SetFamily.from_masks(m.ground, h) for h in hits]
            return f"recovered {recovered.family} but one-per-block partitions are {families}"
    return None


# `is_union_minimal` and `is_intersection_minimal` answer by a certificate
# that rests on `thm_552` and `thm_334`, the statements this registry tests,
# so neither check reads a verdict from it.  `thm_334` decides both sides at
# once from the transversals of the lowest flag of flats, read from the
# memo fact the classifiers read (`_flag_transversals`): they must all be
# bases, and a proper family of them is a witness that M is not union
# minimal, whose complements are one that M* is not intersection minimal;
# these are the witnesses of `is_union_minimal(M)` and
# `is_intersection_minimal(M*)`, and each part of both is validated here.
# Only when the transversals are all of B(M) (unique expansion, or rank
# zero) do the two exhaustive searches run.  `thm_552` and the worked
# examples always search.
@_theorem("thm_334", "union minimality coincides with intersection minimality of the dual")
def _check_thm_334(m: Matroid) -> str | None:
    dual = m.dual()
    blocks, kept = _flag_transversals(m)
    picks = prod(k.bit_count() for k in blocks)
    if len(kept) != picks:
        flag = SetFamily.from_masks(m.ground, blocks)
        return f"flag blocks {flag}: {len(kept)} of {picks} transversals are bases"
    if len(kept) == len(m.bases):
        um = _minimality_search(m, "union").verdict
        im = _minimality_search(dual, "intersection").verdict
        if um != im:
            return f"union minimal {um} but dual intersection minimal {im}"
        return None
    # the witnesses are checked as masks, and built as families only to name
    # a failure; an exchange pass read only for None needs no canonical order
    ground = m.ground
    full = ground.full().mask
    comasks = [full ^ b for b in kept]
    union = 0
    for b in kept:
        union |= b
    family = partial(SetFamily.from_masks, ground)
    if first_exchange_violation(kept) is not None:
        return f"flag transversals {family(kept)} are not a base family"
    if union != m.support().mask:
        return (
            f"flag transversals {family(kept)} cover {ground.from_mask(union)}, "
            "not the base support"
        )
    if not set(comasks) < dual.bases.masks():
        return (
            f"complements {family(comasks)} of the flag transversals are not a "
            "proper part of the dual bases"
        )
    if first_exchange_violation(comasks) is not None:
        return f"complements {family(comasks)} of the flag transversals are not a base family"
    # the complements of the transversals meet in what their union misses
    if full ^ union != dual.base_intersection().mask:
        return (
            f"complements {family(comasks)} of the flag transversals meet in "
            f"{ground.from_mask(full ^ union)}, not the dual base intersection"
        )
    return None


@_theorem("thm_552", "unique expansion implies union minimality", _expansion_unique)
def _check_thm_552(m: Matroid) -> str | None:
    res = _minimality_search(m, "union")
    if not res.verdict:
        return f"unique expansion matroid is not union minimal: {res.witness.subfamily}"
    return None


# cannot fail: unique expansion already bounds every exp[B1 - x] & B2 by one bit
@_theorem("prop_118", "unique expansion implies unique exchange", _expansion_unique)
def _check_prop_118(m: Matroid) -> str | None:
    res = is_unique_exchange(m)
    if not res.verdict:
        return f"unique expansion matroid is not unique exchange: {res.witness}"
    return None


@_theorem("thm_120", "the dual of a unique expansion matroid is a unique exchange matroid", _expansion_unique)
def _check_thm_120(m: Matroid) -> str | None:
    res = is_unique_exchange(m.dual())
    if not res.verdict:
        return f"dual of unique expansion matroid is not unique exchange: {res.witness}"
    return None


@_theorem("dual_involution", "dualizing twice returns the original and dual ranks sum to the ground size")
def _check_dual_involution(m: Matroid) -> str | None:
    # the complements of the dual's bases are the double dual's bases, by
    # definition; comparing masks builds no second matroid
    dual = m.dual()
    full = m.ground.full().mask
    if {full ^ b for b in dual.bases.masks()} != m.bases.masks():
        return "double dual differs from the original"
    if m.rank + dual.rank != m.ground.size:
        return f"ranks {m.rank} + {dual.rank} != ground size {m.ground.size}"
    return None


# frozen after the last checker, once per process: the checks are frozen
# too, so every call can share them
_REGISTRY = tuple(_REGISTRY)


def theorem_registry() -> list[TheoremCheck]:
    """The fixed 28-check registry, in catalog order, as a new list on
    every call, so a caller may change it without touching the registry.

    Each check is one checker function under `_theorem`, which gives its id,
    statement and hypothesis; its place in `harness.py` is its place here
    and in every report."""
    return list(_REGISTRY)


def lookup_check(check_id: str) -> TheoremCheck:
    for check in _REGISTRY:
        if check.check_id == check_id:
            return check
    raise KeyError(f"no check named {check_id!r}")


@dataclass
class CheckOutcome:
    check_id: str
    statement: str
    applicable: int = 0
    passed: int = 0
    failed: int = 0
    witnesses: list[dict] = field(default_factory=list)
    # matroids whose check hit an exhaustive search cap: applicable, but
    # neither passed nor failed
    capped: int = 0
    cap_hits: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "paper_ref": self.statement,
            "applicable": self.applicable,
            "passed": self.passed,
            "failed": self.failed,
            "witnesses": self.witnesses,
            "capped": self.capped,
            "cap_hits": self.cap_hits,
        }


@dataclass
class VerificationReport:
    """Outcome of running a check registry over a matroid population."""

    by_size: dict[int, int]
    by_rank: dict[int, int]
    outcomes: list[CheckOutcome]
    duration_ms: int

    @property
    def total(self) -> int:
        return sum(self.by_size.values())

    @property
    def failures(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def capped(self) -> int:
        return sum(o.capped for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "population": {
                "total": self.total,
                "by_size": {str(k): self.by_size[k] for k in sorted(self.by_size)},
                "by_rank": {str(k): self.by_rank[k] for k in sorted(self.by_rank)},
            },
            "checks": [o.to_dict() for o in self.outcomes],
            "duration_ms": self.duration_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        lines = [
            f"population: {self.total} matroids",
            "  by size: "
            + ", ".join(f"{k}: {self.by_size[k]}" for k in sorted(self.by_size)),
            "  by rank: "
            + ", ".join(f"{k}: {self.by_rank[k]}" for k in sorted(self.by_rank)),
            "",
            f"{'check':<16}{'applicable':>11}{'passed':>8}{'failed':>8}{'capped':>8}",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.check_id:<16}{o.applicable:>11}{o.passed:>8}{o.failed:>8}"
                f"{o.capped:>8}"
            )
            for w in o.witnesses:
                lines.append(f"    witness: {w['detail']} on {w['matroid']}")
            for w in o.cap_hits:
                lines.append(f"    capped: {w['detail']} on {w['matroid']}")
        verdict = "PASS" if self.failures == 0 else f"FAIL ({self.failures} failures)"
        capped = f", {self.capped} capped" if self.capped else ""
        lines.append("")
        lines.append(
            f"result: {verdict} ({len(self.outcomes)} checks{capped})"
            f" in {self.duration_ms} ms"
        )
        return "\n".join(lines)


def verify(
    population: Iterable[Matroid],
    registry: list[TheoremCheck] | None = None,
) -> VerificationReport:
    """Run every applicable check on every matroid of the population.

    Checks run sequentially in population order, and each distinct
    `applies` predicate is evaluated once per matroid.  The population is drawn
    once and no matroid is kept after its checks, so it may be a lazy
    stream; `duration_ms` then includes the time spent drawing it.  A check
    that exceeds the exhaustive minimality search cap is tallied as capped
    on that matroid; a check missing a fact its hypothesis implies, or raising
    `AxiomError` (say, on the dual of a family that is not a matroid), is
    tallied as failed with the error as its detail; either way the sweep goes
    on.  Witnesses and cap hits are tied to their matroid's document, so the
    report is deterministic for a fixed population and registry.
    """
    checks = _REGISTRY if registry is None else list(registry)

    start = perf_counter()
    outcomes = [CheckOutcome(c.check_id, c.statement) for c in checks]
    by_size: dict[int, int] = {}
    by_rank: dict[int, int] = {}
    for m in population:
        by_size[m.ground.size] = by_size.get(m.ground.size, 0) + 1
        by_rank[m.rank] = by_rank.get(m.rank, 0) + 1
        # each distinct predicate is asked once per matroid
        verdicts: dict[Callable[[Matroid], bool], bool] = {}
        for check, outcome in zip(checks, outcomes):
            applies = verdicts.get(check.applies)
            if applies is None:
                applies = verdicts[check.applies] = bool(check.applies(m))
            if not applies:
                continue
            outcome.applicable += 1
            try:
                result = check.run(m)
            except SearchCapExceeded as exc:
                outcome.capped += 1
                outcome.cap_hits.append({"matroid": m.to_doc(), "detail": str(exc)})
                continue
            except (_MissingFact, AxiomError) as exc:
                result = str(exc)
            if result is None:
                outcome.passed += 1
            else:
                outcome.failed += 1
                outcome.witnesses.append(
                    {"matroid": m.to_doc(), "detail": result}
                )
    duration_ms = int((perf_counter() - start) * 1000)
    return VerificationReport(
        by_size=by_size,
        by_rank=by_rank,
        outcomes=outcomes,
        duration_ms=duration_ms,
    )


@dataclass(frozen=True)
class ExampleFact:
    """A single machine-checkable expectation about a worked example."""

    fact_id: str
    description: str
    holds: Callable[[], bool]


@dataclass(frozen=True)
class WorkedExample:
    """A worked example: one or two matroids plus their expected facts."""

    name: str
    matroids: tuple[Matroid, ...]
    facts: tuple[ExampleFact, ...]


def _from_low(labels: Iterable[str], bases: Iterable[Iterable[str]]) -> Matroid:
    # examples are stated as the downward closure of a base family; build them
    # through the independence-axiom route so both validators get exercised
    ground = GroundSet(labels)
    family = SetFamily(ground, (ground.subset(*b) for b in bases))
    return Matroid.from_independents(ground, low(family))


def worked_examples() -> list[WorkedExample]:
    """The worked-example catalog with expected facts, negatives included."""
    g3 = GroundSet("123")
    m_nested = _from_low("123", ["12", "13"])
    m_uniform = _from_low("123", ["12", "13", "23"])
    m_ex119 = _from_low("1234", ["123", "124", "134"])
    m_ex121 = _from_low("1234", ["12", "13", "14"])
    m_ex338 = _from_low("12345", ["123", "124", "134", "125", "145"])
    m_star5 = _from_low("12345", ["12", "13", "14"])
    m_grid5 = _from_low("12345", ["13", "14", "23", "24"])
    m_tri5 = _from_low("12345", ["23", "24", "34"])
    g5 = m_star5.ground

    examples = [
        WorkedExample(
            "example_300",
            (m_nested, m_uniform),
            (
                ExampleFact(
                    "forming_family_nested",
                    "forming family is {{1},{2,3}} with as many blocks as the rank",
                    lambda: forming_family(m_nested)
                    == SetFamily(g3, [g3.subset("1"), g3.subset("2", "3")])
                    and len(forming_family(m_nested)) == 2 == m_nested.rank,
                ),
                ExampleFact(
                    "forming_family_uniform",
                    "forming family is all 2-subsets, one block more than the rank",
                    lambda: forming_family(m_uniform) == m_uniform.bases
                    and len(forming_family(m_uniform)) == 3 > 2 == m_uniform.rank,
                ),
            ),
        ),
        WorkedExample(
            "example_47",
            (m_uniform,),
            (
                ExampleFact(
                    "covering_not_partition",
                    "forming family covers the base support but is not a partition",
                    lambda: is_covering(
                        forming_family(m_uniform), m_uniform.support()
                    )
                    and not is_partition(
                        forming_family(m_uniform), m_uniform.support()
                    ),
                ),
            ),
        ),
        WorkedExample(
            "example_48",
            (m_uniform,),
            (
                ExampleFact(
                    "two_expansions",
                    "secondary base {1} extends into base {2,3} by 2 and by 3",
                    lambda: is_unique_expansion(m_uniform).witness
                    == ExpansionWitness(
                        g3.subset("1"), g3.subset("2", "3"), "2", "3"
                    ),
                ),
            ),
        ),
        WorkedExample(
            "example_73",
            (m_nested,),
            (
                ExampleFact(
                    "unique_expansion",
                    "the nested base pair forms a unique expansion matroid",
                    lambda: is_unique_expansion(m_nested).verdict,
                ),
            ),
        ),
        WorkedExample(
            "example_119",
            (m_ex119,),
            (
                ExampleFact(
                    "unique_exchange_only",
                    "unique exchange holds but unique expansion does not",
                    lambda: is_unique_exchange(m_ex119).verdict
                    and not is_unique_expansion(m_ex119).verdict,
                ),
            ),
        ),
        WorkedExample(
            "example_121",
            (m_ex121,),
            (
                ExampleFact(
                    "exchange_but_dual_not_expansion",
                    "unique exchange holds but the dual is not unique expansion",
                    lambda: is_unique_exchange(m_ex121).verdict
                    and not is_unique_expansion(m_ex121.dual()).verdict,
                ),
            ),
        ),
        WorkedExample(
            "example_333",
            (m_uniform, m_nested),
            (
                ExampleFact(
                    "reducible",
                    "dropping {2,3} leaves a base family with the same union",
                    lambda: _minimality_search(m_uniform, "union").witness.subfamily
                    == m_nested.bases,
                ),
                ExampleFact(
                    "irreducible",
                    "the nested base pair is union minimal",
                    lambda: _minimality_search(m_nested, "union").verdict,
                ),
            ),
        ),
        WorkedExample(
            "example_338",
            (m_ex338,),
            (
                ExampleFact(
                    "two_repairs",
                    "removing 3 from {1,2,3} is repaired by both 4 and 5 of {1,4,5}",
                    lambda: is_unique_exchange(m_ex338).witness
                    == ExchangeWitness(
                        m_ex338.ground.subset("1", "2", "3"),
                        m_ex338.ground.subset("1", "4", "5"),
                        "3", "4", "5",
                    ),
                ),
            ),
        ),
        WorkedExample(
            "prop_42_union",
            (m_star5, m_grid5),
            (
                ExampleFact(
                    "both_union_minimal",
                    "both matroids are union minimal",
                    lambda: _minimality_search(m_star5, "union").verdict
                    and _minimality_search(m_grid5, "union").verdict,
                ),
                ExampleFact(
                    "same_support_and_rank",
                    "equal base support and equal rank",
                    lambda: m_star5.support() == m_grid5.support()
                    and m_star5.rank == m_grid5.rank == 2,
                ),
                ExampleFact(
                    "not_isomorphic",
                    "not isomorphic: base intersections are {1} and {}",
                    lambda: not are_isomorphic(m_star5, m_grid5)
                    and m_star5.base_intersection() == g5.subset("1")
                    and m_grid5.base_intersection() == g5.empty(),
                ),
            ),
        ),
        WorkedExample(
            "prop_42_intersection",
            (m_tri5, m_grid5),
            (
                ExampleFact(
                    "both_intersection_minimal",
                    "both matroids are intersection minimal",
                    lambda: _minimality_search(m_tri5, "intersection").verdict
                    and _minimality_search(m_grid5, "intersection").verdict,
                ),
                ExampleFact(
                    "same_intersection_and_rank",
                    "both base intersections empty, equal rank",
                    lambda: m_tri5.base_intersection()
                    == m_grid5.base_intersection()
                    == g5.empty()
                    and m_tri5.rank == m_grid5.rank == 2,
                ),
                ExampleFact(
                    "not_isomorphic",
                    "not isomorphic: base supports are {2,3,4} and {1,2,3,4}",
                    lambda: not are_isomorphic(m_tri5, m_grid5)
                    and m_tri5.support() == g5.subset("2", "3", "4")
                    and m_grid5.support() == g5.subset("1", "2", "3", "4"),
                ),
            ),
        ),
    ]
    return examples


def check_examples() -> list[tuple[str, str, bool]]:
    """Evaluate every fact of every worked example; rows are (example, fact, ok)."""
    rows = []
    for example in worked_examples():
        for fact in example.facts:
            rows.append((example.name, fact.fact_id, bool(fact.holds())))
    return rows
