"""Per-call timings of each module's public functions on literal fixtures.

Fixtures (fixtures.json): U(3,6); the 16-base rank-3 matroid on six elements
whose minimality searches are slowest, stored as a document so the choice does
not depend on a timing; an 18-set family that fails base exchange late; and
the partition matroid with blocks of 5 and 4 elements, whose 20 bases sit at
the default search cap.  The worked-example catalog comes from the library.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from statistics import median
from time import perf_counter

from matroidlab import (
    GroundSet,
    Matroid,
    Partition,
    SetFamily,
    all_partitions,
    are_isomorphic,
    check_examples,
    cli,
    complements,
    expansion,
    forming_family,
    forming_family_wrt,
    is_intersection_minimal,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    low,
    make_unique_partition_matroid,
    maximal,
    recover_partition,
    secondary_bases,
    transversals,
)
from matroidlab.errors import ExchangeFailure

from tracing import Tracer

FIXTURES = Path(__file__).resolve().parent / "fixtures.json"
# each metric runs BATCHES batches of a fixed number of calls (about 10 ms per
# batch when written), so a span's call count is a constant of the benchmark
# and its self time follows the library's speed
BATCHES = 5


def _family(ground: GroundSet, rows: list[list[str]]) -> SetFamily:
    return SetFamily(ground, (ground.subset(*r) for r in rows))


class _Timer:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.metrics: dict[str, float] = {}

    def time(self, metric: str, loops: int, fn, per: int = 1,
             batches: int = BATCHES) -> float:
        """Median seconds per call of `fn`, which makes `per` library calls.

        One untimed warm-up call comes first, unless a single batch is asked
        for because one call is already slow.
        """
        layer, name = metric.split(".", 1)
        if batches > 1:
            fn()
        per_call = []
        for _ in range(batches):
            with self.tracer.span(name, layer, calls=loops * per) as s:
                for _ in range(loops):
                    fn()
            per_call.append((s["end"] - s["start"]) / (loops * per))
        value = median(per_call)
        unit = metric.rsplit("_", 1)[1]
        self.metrics[metric] = value * {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        return value


def run_layers(tracer: Tracer, workdir: Path) -> dict:
    fx = json.loads(FIXTURES.read_text(encoding="utf-8"))
    u36 = Matroid.from_doc(fx["u36"])
    slow16 = Matroid.from_doc(fx["slow16"])
    g6 = u36.ground
    reject = _family(g6, fx["reject18"]["bases"])
    g9 = GroundSet(fx["p54"]["ground_set"])
    p54_blocks = Partition(_family(g9, fx["p54"]["blocks"]))
    p54 = make_unique_partition_matroid(g9, p54_blocks)
    slow16_indep = low(slow16.bases)
    slow16_relabeled = Matroid.from_bases(
        g6, SetFamily(g6, (g6.from_mask(_reverse_bits(b.mask, 6)) for b in slow16.bases))
    )
    subsets = list(g6.all_subsets())
    secondaries = secondary_bases(slow16).sets
    first_base = slow16.bases.sets[0]
    doc_path = workdir / "slow16.json"
    doc_path.write_text(json.dumps(fx["slow16"]), encoding="utf-8")

    errors: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    def rejects() -> None:
        try:
            Matroid.from_bases(g6, reject)
        except ExchangeFailure:
            return
        errors.append("reject18 was accepted")

    def analyze() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            expect(cli.main(["analyze", str(doc_path), "--json"]) == 0, "analyze exit")

    t = _Timer(tracer)
    with tracer.span("layers", "bench"):
        t.time("setalgebra.setfamily_us", 512, lambda: SetFamily(g6, slow16.bases.sets))
        t.time("setalgebra.low_us", 128, lambda: low(u36.bases))
        u36_low = low(u36.bases)
        t.time("setalgebra.maximal_us", 64, lambda: maximal(u36_low))
        t.time("setalgebra.complements_us", 256, lambda: complements(u36.bases))
        t.time("setalgebra.all_partitions_ms", 4, lambda: list(all_partitions(g6.full())))
        t.time("setalgebra.transversals_us", 256, lambda: transversals(p54_blocks))

        t.time("matroid.from_bases_us", 64, lambda: Matroid.from_bases(g6, u36.bases))
        t.time("matroid.from_bases_reject_us", 128, rejects)
        t.time("matroid.from_independents_us", 16,
               lambda: Matroid.from_independents(g6, slow16_indep))
        t.time("matroid.from_doc_us", 64, lambda: Matroid.from_doc(fx["slow16"]))
        t.time("matroid.rank_of_us", 128,
               lambda: [slow16.rank_of(x) for x in subsets], per=len(subsets))
        t.time("matroid.dual_us", 128, slow16.dual)
        t.time("matroid.to_doc_us", 512, slow16.to_doc)
        t.time("matroid.are_isomorphic_ms", 128,
               lambda: expect(are_isomorphic(slow16, slow16_relabeled), "isomorphism"))

        t.time("forming.secondary_bases_us", 256, lambda: secondary_bases(slow16))
        t.time("forming.expansion_us", 64,
               lambda: [expansion(slow16, a) for a in secondaries], per=len(secondaries))
        t.time("forming.forming_family_us", 64, lambda: forming_family(slow16))
        t.time("forming.forming_family_wrt_us", 256,
               lambda: forming_family_wrt(slow16, first_base))

        t.time("classify.unique_expansion_us", 64,
               lambda: expect(is_unique_expansion(p54).verdict, "p54 unique expansion"))
        t.time("classify.unique_exchange_us", 16, lambda: is_unique_exchange(p54))
        t.time("classify.recover_partition_us", 32,
               lambda: expect(recover_partition(p54) == p54_blocks, "p54 recovery"))
        full_s = t.time("classify.union_minimal_full_ms", 1,
                        lambda: expect(is_union_minimal(p54).verdict, "p54 union minimal"),
                        batches=1)
        t.time("classify.union_minimal_hit_ms", 64,
               lambda: expect(not is_union_minimal(u36).verdict, "u36 reducible"))
        t.time("classify.intersection_minimal_ms", 1, lambda: is_intersection_minimal(slow16))

        t.time("harness.examples_ms", 8,
               lambda: expect(all(ok for _, _, ok in check_examples()), "worked examples"))
        t.time("cli.load_ms", 64, lambda: cli.parse_matroid_file(str(doc_path)))
        t.time("cli.analyze_ms", 1, analyze)

    bases = len(p54.bases)
    # computed, not counted: every proper nonempty subfamily of a true verdict
    t.metrics["classify.subfamilies_per_s"] = (2 ** bases - 2) / full_s
    errors = sorted(set(errors))
    return {"metrics": t.metrics, "attempted": len(t.metrics), "failed": len(errors),
            "errors": errors}


def _reverse_bits(mask: int, n: int) -> int:
    return int(format(mask, f"0{n}b")[::-1], 2)
