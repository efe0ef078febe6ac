"""Inputs, timed passes and correctness gates of the three workloads.

Each function here runs inside one fresh child interpreter (see child.py) and
returns a plain dict for the parent.  Inputs come only from the seed and the
child's index; the library sees nothing but the generated matroids and
documents.

The seed picks labelings, never isomorphism types: every sample is a fixed
stride through the canonical enumeration order, relabeled by seeded
permutations.  Cost depends on the type, not the labeling, so every seed asks
for the same amount of work; a seed-chosen subset instead made pass times
differ by up to 13% between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from pathlib import Path
from time import perf_counter

from matroidlab import (
    GroundSet,
    Matroid,
    SetFamily,
    check_examples,
    cli,
    enumerate_matroids,
    theorem_registry,
    verify,
)

from tracing import Stopwatch, Tracer

# stride through the 3,807 matroids on six elements for the sweep population
SWEEP_STRIDE = 13
# no calibration sample can fall inside one verify() call, so the population
# goes through verify() in this many strided parts of the same mix, with
# samples between them, and the scaling follows the machine through the pass
SWEEP_PARTS = 4
# stride through all 4,304 matroids on 1..6 elements for per-matroid latency;
# 200 of them, so that ten lie beyond the 95th percentile
SWEEP_LATENCY_OFFSET, SWEEP_LATENCY_STRIDE, SWEEP_LATENCY_COUNT = 10, 21, 200

# analyze batch per round: 160 light, 20 independents, 16 partition, 4 invalid
LIGHT_OFFSET, LIGHT_STRIDE, LIGHT_COUNT = 3, 23, 160
INDEP_OFFSET, INDEP_STRIDE, INDEP_COUNT = 7, 190, 20
ANALYZE_ROUNDS = 3
# block sizes of the unique partition matroids (12-16 bases).  Four of the
# slower 16-base shape sit above ten of the faster one, so the 95th percentile
# of the 200 latencies lands inside the run of (2, 8) documents.
PARTITION_SHAPES = ((2, 2, 4),) * 4 + ((2, 8),) * 10 + ((3, 4),) * 2
MAX_PARTITION_GROUND = 12
INVALID_DOCS = (
    {"ground_set": ["1", "2", "3"], "bases": [["1", "2"], ["3"]]},
    {"ground_set": ["1", "2", "3", "4"], "bases": [["1", "2"], ["3", "4"]]},
    {"ground_set": ["1", "2"], "independents": [["1"], ["2"]]},
    {"ground_set": ["1", "2", "3"], "independents": [[], ["1", "2"], ["1"]]},
)

# matroids per ground-set size, and sha256 of each size's JSON-lines stream
# as `matroidlab enumerate --n N` prints it; canonical order is part of it
ENUMERATE_EXPECTED = {
    1: (2, "d520aa39c3500e69b31279110e3429e0c344619c4626f01c41bf8d98f60e1bcb"),
    2: (5, "0112775c0c4dc304165268bf46ea74a296237f80422f1667851513d5910d48c1"),
    3: (16, "39b6963ac6040ec592498cfa1c6734d64057d8dab5810c759222ce64ca14a1fe"),
    4: (68, "d28550e170b50fed783f4c97dbfaf379332ed4d953d638605a15e3570240d19c"),
    5: (406, "37a8e6cb2005a4b48fb9def118344100b7d5b890d2a55149d06080ff5c3ab608"),
    6: (3807, "6d0ed340426aec57903712c57e7a049c9d9c3bcd29e415b04a3a98b909b9c0a4"),
}
ENUMERATE_STREAM_SHA256 = (
    "b856bf8ac345f013ef7e638158f78bce23c5045b8dc3488e52909588c85ff3c5"
)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _relabel(m: Matroid, ground: GroundSet, perm: list[int]) -> Matroid:
    masks = []
    for b in m.bases:
        out = 0
        for i in b.indices():
            out |= 1 << perm[i]
        masks.append(out)
    return Matroid.from_bases(ground, SetFamily(ground, map(ground.from_mask, masks)))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --------------------------------------------------------------------- sweep

def sweep_inputs(seed: int, index: int) -> dict:
    rng = _rng("sweep", seed, index)
    by_size = {n: list(enumerate_matroids(n)) for n in range(1, 7)}
    six = by_size[6]
    ground6 = six[0].ground
    sample = [_relabel(m, ground6, _shuffled(rng, 6)) for m in six[::SWEEP_STRIDE]]
    population = [m for n in range(1, 6) for m in by_size[n]] + sample
    # latency copies live on letter labels, so they share no value with the
    # population and no per-matroid cache can carry over between the passes
    everything = [m for n in range(1, 7) for m in by_size[n]]
    picked = everything[SWEEP_LATENCY_OFFSET::SWEEP_LATENCY_STRIDE][:SWEEP_LATENCY_COUNT]
    latency = []
    for j, m in enumerate(picked):
        n = m.ground.size
        latency.append((f"m{j}", _relabel(m, GroundSet("abcdef"[:n]), _shuffled(rng, n))))
    return {"population": population, "latency": latency}


def _report_digest(reports) -> str:
    docs = [r.to_dict() for r in reports]
    for doc in docs:
        doc.pop("duration_ms")
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _failing_matroids(report) -> int:
    docs = {json.dumps(w["matroid"]) for o in report.outcomes for w in o.witnesses}
    return len(docs)


def sweep_pass(inputs: dict, watch: Stopwatch) -> dict:
    """verify(part) per part of the population is the pass; then verify([m])
    per latency matroid."""
    population = inputs["population"]
    errors = []
    reports = []
    for part in range(SWEEP_PARTS):
        watch.tick()
        start = perf_counter()
        reports.append(verify(population[part::SWEEP_PARTS]))
        watch.segment(start, perf_counter())
    failed = 0
    for report in reports:
        lost = _failing_matroids(report)
        if lost:
            failed += lost
            errors.append(f"verify: {report.failures} failed checks on {lost} matroids")
    for key, m in inputs["latency"]:
        watch.tick()
        t = perf_counter()
        single = verify([m])
        watch.op(key, t, perf_counter())
        if single.failures:
            failed += 1
            errors.append(f"verify([m]) failed on {m.to_doc()}")
    facts = check_examples()
    for example, fact, ok in facts:
        if not ok:
            failed += 1
            errors.append(f"worked example {example}.{fact} does not hold")
    return {
        "ops": len(population),
        "attempted": len(population) + len(inputs["latency"]) + len(facts),
        "failed": failed,
        "digest": _report_digest(reports),
        "errors": errors,
    }


def sweep_traced(inputs: dict, watch: Stopwatch, tracer: Tracer) -> dict:
    """One verify(slice_n, [check]) per (size, check): the per-check table."""
    by_size: dict[int, list[Matroid]] = {}
    for m in inputs["population"]:
        by_size.setdefault(m.ground.size, []).append(m)
    table: dict[str, dict[int, float]] = {}
    failed, errors = 0, []
    with tracer.span("sweep pass", "bench") as whole:
        for check in theorem_registry():
            row = table.setdefault(check.check_id, {})
            for n in sorted(by_size):
                with tracer.span(f"verify n={n} {check.check_id}", "harness") as s:
                    report = verify(by_size[n], [check])
                row[n] = s["end"] - s["start"]
                if report.failures:
                    failed += report.failures
                    errors.append(f"{check.check_id} failed {report.failures}x at n={n}")
    watch.segment(whole["start"], whole["end"])
    return {
        "table": table,
        "attempted": len(inputs["population"]),
        "failed": failed,
        "errors": errors,
    }


# ----------------------------------------------------------------- enumerate

def _gate_size(n: int, count: int, digest, errors: list[str]) -> tuple[int, int]:
    """(attempted, failed) for the matroids on n elements."""
    want_count, want_sha = ENUMERATE_EXPECTED[n]
    attempted = max(count, want_count)
    if (count, digest.hexdigest()) == (want_count, want_sha):
        return attempted, 0
    errors.append(f"n={n}: {count} matroids, stream sha256 {digest.hexdigest()}")
    return attempted, attempted


def _gate_stream(stream, errors: list[str]) -> int:
    """Failures added by the whole-stream hash, once each n passed alone."""
    if stream.hexdigest() == ENUMERATE_STREAM_SHA256 or errors:
        return 0
    errors.append("whole-stream sha256 differs")
    return 1


def enumerate_pass(watch: Stopwatch) -> dict:
    """`matroidlab enumerate` for n=1..6: yield, to_doc, json.dumps, per matroid.

    The pass is the sum of the timed steps, so calibration samples taken
    between matroids stay out of it.
    """
    stream = hashlib.sha256()
    attempted, failed, errors = 0, 0, []
    for n in range(1, 7):
        digest = hashlib.sha256()
        count = 0
        matroids = enumerate_matroids(n)
        while True:
            watch.tick()
            t = perf_counter()
            m = next(matroids, None)
            if m is None:
                watch.segment(t, perf_counter())
                break
            line = (json.dumps(m.to_doc()) + "\n").encode()
            end = perf_counter()
            watch.segment(t, end)
            watch.op(f"{n}:{count}", t, end)
            digest.update(line)
            stream.update(line)
            count += 1
        tried, lost = _gate_size(n, count, digest, errors)
        attempted += tried
        failed += lost
    failed += _gate_stream(stream, errors)
    return {
        "ops": len(watch.ops),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def enumerate_traced(watch: Stopwatch, tracer: Tracer) -> dict:
    """The same stream with a span per n, and per rank at n=6, each cold."""
    stream = hashlib.sha256()
    rank_s, attempted, failed, errors = {}, 0, 0, []
    with tracer.span("enumerate pass", "bench") as whole:
        for n in range(1, 7):
            digest = hashlib.sha256()
            count = 0
            for r in range(n + 1) if n == 6 else [None]:
                with tracer.span(f"enumerate_matroids({n}, rank={r})", "enumeration") as s:
                    matroids = list(enumerate_matroids(n, rank=r))
                if r is not None:
                    rank_s[r] = s["end"] - s["start"]
                with tracer.span(f"to_doc n={n} rank={r}", "matroid", calls=len(matroids)):
                    lines = [(json.dumps(m.to_doc()) + "\n").encode() for m in matroids]
                for line in lines:
                    digest.update(line)
                    stream.update(line)
                count += len(lines)
            tried, lost = _gate_size(n, count, digest, errors)
            attempted += tried
            failed += lost
    failed += _gate_stream(stream, errors)
    watch.segment(whole["start"], whole["end"])
    return {
        "rank_s": rank_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


# ------------------------------------------------------------------- analyze

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _labels(rng: random.Random, n: int, style: int) -> list:
    """n distinct labels: permuted digits, lowercase words, or JSON integers."""
    if style == 0:
        return [str(i + 1) for i in _shuffled(rng, n)]
    if style == 1:
        return rng.sample([a + b for a in _LETTERS for b in _LETTERS], n)
    return rng.sample(range(100, 1000), n)


def _expected(doc_labels: list, rank: int, bases: list[list]) -> dict:
    return {
        "rank": rank,
        "bases": sorted(sorted(map(str, b)) for b in bases),
        "ground": sorted(map(str, doc_labels)),
    }


def _matroid_doc(rng: random.Random, m: Matroid, style: int, independents: bool):
    labels = _labels(rng, m.ground.size, style)
    rows = m.independents() if independents else m.bases
    sets = [[labels[i] for i in s.indices()] for s in rows]
    for s in sets:
        rng.shuffle(s)
    rng.shuffle(sets)
    doc = {"ground_set": rng.sample(labels, len(labels)),
           ("independents" if independents else "bases"): sets}
    bases = [[labels[i] for i in b.indices()] for b in m.bases]
    return doc, _expected(labels, m.rank, bases)


def _partition_doc(rng: random.Random, shape: tuple[int, ...]):
    support = sum(shape)
    n = support + rng.randint(0, MAX_PARTITION_GROUND - support)
    labels = _labels(rng, n, 1)
    blocks, at = [], 0
    for size in shape:
        blocks.append(labels[at:at + size])
        at += size
    bases = [list(pick) for pick in product(*blocks)]
    rng.shuffle(bases)
    doc = {"ground_set": rng.sample(labels, n), "bases": bases}
    expected = _expected(labels, len(shape), bases)
    expected["partition"] = sorted(sorted(b) for b in blocks)
    return doc, expected


def analyze_inputs(seed: int, index: int, workdir: Path) -> list[dict]:
    """Write this child's documents; returns one record per document.

    Each round is the same batch of isomorphism types under fresh labels, so
    a key names the same type in every round and every child, and no value
    repeats for a cache to catch.
    """
    rng = _rng("analyze", seed, index)
    six = list(enumerate_matroids(6))
    light = six[LIGHT_OFFSET::LIGHT_STRIDE][:LIGHT_COUNT]
    indep = six[INDEP_OFFSET::INDEP_STRIDE][:INDEP_COUNT]
    records = []
    for round_ in range(ANALYZE_ROUNDS):
        items = []
        for j, m in enumerate(light):
            items.append((f"light{j}",) + _matroid_doc(rng, m, j % 3, independents=False))
        for j, m in enumerate(indep):
            items.append((f"indep{j}",) + _matroid_doc(rng, m, j % 3, independents=True))
        for j, shape in enumerate(PARTITION_SHAPES):
            items.append((f"partition{j}",) + _partition_doc(rng, shape))
        for j, doc in enumerate(INVALID_DOCS):
            items.append((f"invalid{j}", doc, None))
        rng.shuffle(items)
        for key, doc, expected in items:
            path = workdir / f"r{round_}-{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            records.append({"path": str(path), "key": key, "expected": expected})
    return records


def _run_cli(path: str) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["analyze", path, "--json"])
        except Exception as exc:  # counted as a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _analyze_error(record: dict, code, output: str) -> str | None:
    expected = record["expected"]
    if expected is None:
        return None if code == 1 else f"exit {code!r}, want 1"
    if code != 0:
        return f"exit {code!r}, want 0"
    try:
        out = json.loads(output)
        got = {
            "rank": out["rank"],
            "bases": sorted(sorted(b) for b in out["bases"]),
            "ground": sorted(out["ground_set"]),
        }
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({exc}): {output[:200]!r}"
    want = {k: expected[k] for k in got}
    if got != want:
        return f"document read back as {got}, want {want}"
    if "partition" in expected:
        if not (out["unique_expansion"] and out["union_minimal"]):
            return "partition matroid not unique expansion and union minimal"
        recovered = sorted(sorted(b) for b in out["recovered_partition"] or [])
        if recovered != expected["partition"]:
            return f"recovered partition {recovered}, want {expected['partition']}"
    return None


def analyze_pass(records: list[dict], watch: Stopwatch,
                 tracer: Tracer | None = None) -> dict:
    """cli.main(["analyze", path, "--json"]) per document, stdout captured.

    The pass is the sum of the documents' times, so calibration samples
    stay out of it.
    """
    runs = []
    for record in records:
        if tracer is None:
            watch.tick()
            t = perf_counter()
            code, output = _run_cli(record["path"])
            end = perf_counter()
            watch.op(record["key"], t, end)
        else:
            with tracer.span("cli.main analyze", "cli") as s:
                code, output = _run_cli(record["path"])
            t, end = s["start"], s["end"]
        watch.segment(t, end)
        runs.append((code, output))
    errors = []
    for record, (code, output) in zip(records, runs):
        problem = _analyze_error(record, code, output)
        if problem is not None:
            errors.append(f"{record['key']}: {problem}")
    return {
        "ops": len(records),
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors,
    }
