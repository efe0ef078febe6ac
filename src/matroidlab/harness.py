"""Registry-driven verification of the theorem catalog over matroid populations.

The registry holds one check per cataloged statement.  A check declares the
matroids it applies to (statements with hypotheses skip the rest rather than
vacuously passing them) and a checker that returns None on success or a
human-readable failure detail.  `verify` runs a registry over a population and
produces a deterministic report; failures are report content, never errors.

The worked examples bundled here are small matroids with machine-checkable
expected facts, including the negative ones (non-membership in a class, with
the exact canonical witness).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

from .classify import (
    ExchangeWitness,
    ExpansionWitness,
    _minimality_search,
    is_unique_exchange,
    is_unique_expansion,
    recover_partition,
)
from .errors import AxiomError, SearchCapExceeded
from .forming import _forming_masks_wrt, forming_family, forming_family_wrt
from .matroid import (
    Matroid,
    PartitionMatroidSpec,
    are_isomorphic,
    first_exchange_violation,
    make_partition_matroid,
    make_unique_partition_matroid,
)
from .setalgebra import (
    GroundSet,
    Partition,
    SetFamily,
    Subset,
    _one_per_block,
    _partition_masks,
    _transversal_masks,
    combination_number,
    complements,
    is_covering,
    is_partition,
    low,
    one_per_block,
    transversals,
)


@dataclass(frozen=True)
class TheoremCheck:
    """One verifiable statement: applicability predicate plus checker."""

    check_id: str
    statement: str
    applies: Callable[[Matroid], bool]
    run: Callable[[Matroid], str | None]


def _always(m: Matroid) -> bool:
    return True


def _rank_positive(m: Matroid) -> bool:
    return m.rank > 0


def _expansion_unique(m: Matroid) -> bool:
    return m.rank > 0 and is_unique_expansion(m).verdict


class _MissingFact(Exception):
    """A fact the check's hypothesis implies is absent: a failure of that matroid."""


def _recovered(m: Matroid) -> Partition:
    p = recover_partition(m)
    if p is None:
        raise _MissingFact("the forming family does not partition the base support")
    return p


def _first_mismatch(
    ground: GroundSet, members: frozenset[int], described: Callable[[int], bool]
) -> Subset | None:
    """The least subset whose membership in `members` differs from `described`."""
    for mask in range(1 << ground.size):
        if (mask in members) != described(mask):
            return Subset(ground, mask)
    return None


def _check_prop_100(m: Matroid) -> str | None:
    sizes = {len(b) for b in m.bases}
    if len(sizes) > 1:
        return f"bases of different sizes {sorted(sizes)}"
    return None


def _check_thm_123(m: Matroid) -> str | None:
    # (B2-{y})+{x} is a base exactly when (C2-{x})+{y} is a complement of one,
    # for Ci the complement of Bi: base exchange on the complement family
    cobases = complements(m.bases)
    violation = first_exchange_violation([c.mask for c in cobases])
    if violation is None:
        return None
    c2, c1, x = violation
    full = m.ground.full().mask
    b1, b2 = m.ground.from_mask(full ^ c1), m.ground.from_mask(full ^ c2)
    return f"no y in {b2}-{b1} with ({b2}-{{y}})+{{{m.ground.label(x)}}} a base"


def _check_prop_341(m: Matroid) -> str | None:
    for b in m.bases:
        count = len(_forming_masks_wrt(m, b))
        if count != m.rank:
            return f"|forming family wrt {b}| = {count} != rank {m.rank}"
    return None


def _check_cor_423(m: Matroid) -> str | None:
    fam = forming_family(m)
    if len(fam) < m.rank:
        return f"|forming family| = {len(fam)} < rank {m.rank}"
    return None


def _check_prop_46(m: Matroid) -> str | None:
    u = forming_family(m).union()
    if u != m.support():
        return f"union of forming family {u} != base support {m.support()}"
    return None


def _check_prop_124(m: Matroid) -> str | None:
    support = m.support()
    for b in m.bases:
        u = 0
        for k in _forming_masks_wrt(m, b):
            u |= k
        if u != support.mask:
            return (
                f"union of forming family wrt {b} is "
                f"{m.ground.from_mask(u)} != {support}"
            )
    return None


def _check_lemma_e(m: Matroid) -> str | None:
    for b in m.bases:
        blocks = _forming_masks_wrt(m, b)
        for i in b.indices():
            hits = sum(k >> i & 1 for k in blocks)
            if hits != 1:
                return (
                    f"element {m.ground.label(i)} of base {b} lies in "
                    f"{hits} blocks of {forming_family_wrt(m, b)}"
                )
    return None


def _check_lemma_66(m: Matroid) -> str | None:
    target = SetFamily(m.ground, [m.support()])
    for b in m.bases:
        fam = forming_family_wrt(m, b)
        if fam != target:
            return f"rank-one forming family wrt {b} is {fam}, not {target}"
    return None


def _check_thm_50(m: Matroid) -> str | None:
    ue = is_unique_expansion(m).verdict
    part = recover_partition(m) is not None
    if ue != part:
        return f"unique expansion {ue} but forming family partitions support {part}"
    return None


def _check_prop_h(m: Matroid) -> str | None:
    fam = forming_family(m)
    if not one_per_block(m.bases.masks(), fam):
        return f"some base does not meet every block of {fam} exactly once"
    return None


def _check_thm_126(m: Matroid) -> str | None:
    ue = is_unique_expansion(m).verdict
    count = len(forming_family(m))
    if ue != (count == m.rank):
        return f"unique expansion {ue} but |forming family| = {count}, rank {m.rank}"
    return None


def _check_prop_51_j(m: Matroid) -> str | None:
    blocks = [k.mask for k in forming_family(m)]
    support = m.support().mask
    base_masks = m.bases.masks()
    x = _first_mismatch(
        m.ground, base_masks,
        lambda mask: mask & ~support == 0 and _one_per_block((mask,), blocks),
    )
    if x is not None:
        member = x.mask in base_masks
        return f"{x}: base membership {member} but one-per-block description {not member}"
    return None


def _check_prop_125(m: Matroid) -> str | None:
    product = transversals(_recovered(m))
    if m.bases != product:
        return f"bases {m.bases} != transversal product {product}"
    return None


def _check_prop_302_304(m: Matroid) -> str | None:
    p = _recovered(m)
    upm = make_unique_partition_matroid(m.ground, p)
    capped = make_partition_matroid(
        m.ground, PartitionMatroidSpec(p, (1,) * len(p))
    )
    if upm.bases != capped.bases:
        return "one-per-block and cap-1 constructions disagree"
    return None


def _check_prop_303(m: Matroid) -> str | None:
    p = _recovered(m)
    support = p.support().mask
    for caps in ((1,) * len(p), tuple(len(b) for b in p)):
        built = make_partition_matroid(m.ground, PartitionMatroidSpec(p, caps))
        x = _first_mismatch(
            m.ground, built.bases.masks(),
            lambda mask: mask & ~support == 0
            and all(
                (mask & blk.mask).bit_count() == cap
                for blk, cap in zip(p, caps)
            ),
        )
        if x is not None:
            return f"cap vector {caps}: built bases differ from the definitional filter"
    return None


def _check_prop_305_306(m: Matroid) -> str | None:
    p = _recovered(m)
    base_masks = make_unique_partition_matroid(m.ground, p).bases.masks()
    support = p.support().mask
    blocks = [k.mask for k in p]
    x = _first_mismatch(
        m.ground, base_masks,
        lambda mask: mask & ~support == 0 and _one_per_block((mask,), blocks),
    )
    if x is not None:
        member = x.mask in base_masks
        return f"{x}: membership {member} vs description {not member}"
    return None


def _check_prop_339(m: Matroid) -> str | None:
    p = _recovered(m)
    dual = make_unique_partition_matroid(m.ground, p).dual()
    full = m.ground.full().mask
    rest = p.support().complement().mask
    dual_masks = dual.bases.masks()
    blocks = [k.mask for k in p]
    x = _first_mismatch(
        m.ground, dual_masks,
        lambda mask: rest & ~mask == 0 and _one_per_block((full ^ mask,), blocks),
    )
    if x is not None:
        member = x.mask in dual_masks
        return f"{x}: dual membership {member} vs description {not member}"
    return None


def _check_cor_336(m: Matroid) -> str | None:
    p = _recovered(m)
    upm = make_unique_partition_matroid(m.ground, p)
    if upm.support() != p.support():
        return f"base support {upm.support()} != partition support {p.support()}"
    return None


def _check_thm_321(m: Matroid) -> str | None:
    p = _recovered(m)
    upm = make_unique_partition_matroid(m.ground, p)
    back = forming_family(upm)
    if back != p.family:
        return f"forming family {back} != defining partition {p.family}"
    return None


def _check_thm_52(m: Matroid) -> str | None:
    ue = is_unique_expansion(m).verdict
    p = recover_partition(m)
    upm_equal = (
        p is not None
        and make_unique_partition_matroid(m.ground, p).bases == m.bases
    )
    if ue != upm_equal:
        return f"unique expansion {ue} but one-per-block construction match {upm_equal}"
    return None


def _one_per_block_partitions(m: Matroid) -> list[list[int]]:
    """The support partitions every base meets once per block, as block-mask
    lists in `_partition_masks` order.

    Such a partition has one block per base element and no block holding two
    elements of one base, so the walk is bounded by both; each leaf is still
    confirmed, since an unvalidated family's members may differ in size.
    """
    base_masks = m.bases.masks()
    walk = _partition_masks(m.support().mask, base_masks, m.rank)
    return [blocks for blocks in walk if _one_per_block(base_masks, blocks)]


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


def _check_cor_109(m: Matroid) -> str | None:
    if m.rank == 0:
        p = Partition(SetFamily(m.ground, ()))
    else:
        p = _recovered(m)
    if len(m.bases) != combination_number(p):
        return f"|bases| = {len(m.bases)} != block size product {combination_number(p)}"
    return None


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
# so the registry and the worked examples run the exhaustive searches themselves
def _check_thm_334(m: Matroid) -> str | None:
    um = _minimality_search(m, "union").verdict
    im = _minimality_search(m.dual(), "intersection").verdict
    if um != im:
        return f"union minimal {um} but dual intersection minimal {im}"
    return None


def _check_thm_552(m: Matroid) -> str | None:
    res = _minimality_search(m, "union")
    if not res.verdict:
        return f"unique expansion matroid is not union minimal: {res.witness.subfamily}"
    return None


def _check_prop_118(m: Matroid) -> str | None:
    res = is_unique_exchange(m)
    if not res.verdict:
        return f"unique expansion matroid is not unique exchange: {res.witness}"
    return None


def _check_thm_120(m: Matroid) -> str | None:
    res = is_unique_exchange(m.dual())
    if not res.verdict:
        return f"dual of unique expansion matroid is not unique exchange: {res.witness}"
    return None


def _check_dual_involution(m: Matroid) -> str | None:
    dual = m.dual()
    if dual.dual() != m:
        return "double dual differs from the original"
    if m.rank + dual.rank != m.ground.size:
        return f"ranks {m.rank} + {dual.rank} != ground size {m.ground.size}"
    return None


def theorem_registry() -> list[TheoremCheck]:
    """The fixed 28-check registry, in catalog order."""
    return [
        TheoremCheck(
            "prop_100", "any two bases have the same size",
            _always, _check_prop_100,
        ),
        TheoremCheck(
            "thm_123",
            "for bases B1, B2 and x in B1-B2 some y in B2-B1 makes (B2-{y})+{x} a base",
            _always, _check_thm_123,
        ),
        TheoremCheck(
            "prop_341",
            "the forming family relative to any base has exactly rank-many blocks",
            _rank_positive, _check_prop_341,
        ),
        TheoremCheck(
            "cor_423", "the forming family has at least rank-many blocks",
            _rank_positive, _check_cor_423,
        ),
        TheoremCheck(
            "prop_46",
            "the union of the forming family equals the union of the bases",
            _rank_positive, _check_prop_46,
        ),
        TheoremCheck(
            "prop_124",
            "the union of every base-relative forming family equals the union of the bases",
            _rank_positive, _check_prop_124,
        ),
        TheoremCheck(
            "lemma_e",
            "each element of a base lies in exactly one block of that base's forming family",
            _rank_positive, _check_lemma_e,
        ),
        TheoremCheck(
            "lemma_66",
            "at rank one every base-relative forming family is the single block of all base elements",
            lambda m: m.rank == 1, _check_lemma_66,
        ),
        TheoremCheck(
            "thm_50",
            "unique expansion holds exactly when the forming family partitions the base support",
            _rank_positive, _check_thm_50,
        ),
        TheoremCheck(
            "prop_h",
            "in a unique expansion matroid every base meets every forming block exactly once",
            _expansion_unique, _check_prop_h,
        ),
        TheoremCheck(
            "thm_126",
            "unique expansion holds exactly when the forming family has rank-many blocks",
            _rank_positive, _check_thm_126,
        ),
        TheoremCheck(
            "prop_51_j",
            "in a unique expansion matroid the bases are exactly the support subsets meeting every forming block once",
            _expansion_unique, _check_prop_51_j,
        ),
        TheoremCheck(
            "prop_125",
            "the base family of a unique expansion matroid is the transversal product of its forming family",
            _expansion_unique, _check_prop_125,
        ),
        TheoremCheck(
            "prop_302_304",
            "capped-block and one-per-block constructions validate and agree",
            _expansion_unique, _check_prop_302_304,
        ),
        TheoremCheck(
            "prop_303",
            "bases of a capped-block matroid are exactly the partition subsets hitting each block at its cap",
            _expansion_unique, _check_prop_303,
        ),
        TheoremCheck(
            "prop_305_306",
            "bases of a one-per-block matroid are exactly the transversals of the partition",
            _expansion_unique, _check_prop_305_306,
        ),
        TheoremCheck(
            "prop_339",
            "dual bases of a one-per-block matroid contain the off-partition rest and miss one element per block",
            _expansion_unique, _check_prop_339,
        ),
        TheoremCheck(
            "cor_336",
            "the base support of a one-per-block matroid is the partition support",
            _expansion_unique, _check_cor_336,
        ),
        TheoremCheck(
            "thm_321",
            "the forming family of a one-per-block matroid is its defining partition",
            _expansion_unique, _check_thm_321,
        ),
        TheoremCheck(
            "thm_52",
            "unique expansion matroids are exactly the one-per-block partition matroids",
            _rank_positive, _check_thm_52,
        ),
        TheoremCheck(
            "thm_33",
            "bases meet every block of a support partition once exactly when they are its transversal product",
            _always, _check_thm_33,
        ),
        TheoremCheck(
            "cor_109",
            "when bases meet every block once, the base count is the product of the block sizes",
            _applies_cor_109, _check_cor_109,
        ),
        TheoremCheck(
            "prop_103",
            "at most one support partition has every base meeting every block exactly once",
            _rank_positive, _check_prop_103,
        ),
        TheoremCheck(
            "thm_334",
            "union minimality coincides with intersection minimality of the dual",
            _always, _check_thm_334,
        ),
        TheoremCheck(
            "thm_552", "unique expansion implies union minimality",
            _expansion_unique, _check_thm_552,
        ),
        TheoremCheck(
            "prop_118", "unique expansion implies unique exchange",
            _expansion_unique, _check_prop_118,
        ),
        TheoremCheck(
            "thm_120",
            "the dual of a unique expansion matroid is a unique exchange matroid",
            _expansion_unique, _check_thm_120,
        ),
        TheoremCheck(
            "dual_involution",
            "dualizing twice returns the original and dual ranks sum to the ground size",
            _always, _check_dual_involution,
        ),
    ]


def lookup_check(check_id: str, registry: list[TheoremCheck] | None = None) -> TheoremCheck:
    for check in registry if registry is not None else theorem_registry():
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

    Checks run sequentially in population order.  The population is drawn
    once and no matroid is kept after its checks, so it may be a lazy
    stream; `duration_ms` then includes the time spent drawing it.  A check
    that exceeds an exhaustive search cap is tallied as capped on that
    matroid; a check missing a fact its hypothesis implies, or raising
    `AxiomError` (say, on the dual of a family that is not a matroid), is
    tallied as failed with the error as its detail; either way the sweep goes
    on.  Witnesses and cap hits are tied to their matroid's document, so the
    report is deterministic for a fixed population and registry.
    """
    checks = theorem_registry() if registry is None else list(registry)

    start = perf_counter()
    outcomes = [CheckOutcome(c.check_id, c.statement) for c in checks]
    by_size: dict[int, int] = {}
    by_rank: dict[int, int] = {}
    for m in population:
        by_size[m.ground.size] = by_size.get(m.ground.size, 0) + 1
        by_rank[m.rank] = by_rank.get(m.rank, 0) + 1
        for check, outcome in zip(checks, outcomes):
            if not check.applies(m):
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
