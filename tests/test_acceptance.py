"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

All expectations are exact; the only tolerances are the stated wall-clock
budgets.  The per-criterion lines are collected in RESULT_LINES and printed in
the terminal summary (see conftest.py), so they show up in a plain `pytest -v`
run as well as with `-s`.
"""

import random
import sys
import time


from matroidlab import (
    GroundSet,
    Matroid,
    SetFamily,
    check_examples,
    combination_number,
    enumerate_matroids,
    expansion,
    forming_family,
    is_intersection_minimal,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    make_unique_partition_matroid,
    recover_partition,
    all_partitions,
    verify,
)

from oracles import all_antichain_matroids, expansion_oracle, rank_oracle


RESULT_LINES: list[str] = []


def report(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    RESULT_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, f"acceptance criterion failed: {name} {detail}"


_populations: dict[int, list[Matroid]] = {}


def population(max_n: int) -> list[Matroid]:
    if max_n not in _populations:
        _populations[max_n] = [
            m for n in range(1, max_n + 1) for m in enumerate_matroids(n)
        ]
    return _populations[max_n]


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    rows = check_examples()
    elapsed = time.perf_counter() - start
    failed = [(example, fact) for example, fact, ok in rows if not ok]
    report(
        "1 worked-example suite",
        not failed and elapsed < 1.0,
        f"{len(rows)} facts, {elapsed:.3f}s",
    )


def test_criterion_2_sweep_up_to_4():
    start = time.perf_counter()
    for n in (1, 2, 3):
        ours = {m.bases.masks() for m in enumerate_matroids(n)}
        oracle = {m.bases.masks() for m in all_antichain_matroids(n)}
        assert ours == oracle, f"enumeration disagrees with the oracle at n={n}"
    rep = verify(population(4))
    elapsed = time.perf_counter() - start
    report(
        "2 exhaustive sweep n<=4",
        len(rep.outcomes) == 28 and rep.failures == 0 and elapsed < 10.0,
        f"{rep.total} matroids, {rep.failures} failures, {elapsed:.2f}s",
    )


def test_criterion_3_sweep_at_5():
    start = time.perf_counter()
    rep = verify(list(enumerate_matroids(5)))
    elapsed = time.perf_counter() - start
    by_id = {o.check_id: o for o in rep.outcomes}
    exercised = all(
        by_id[check_id].applicable > 0
        for check_id in (
            "thm_334", "thm_552", "thm_50", "thm_126", "thm_52",
            "prop_46", "prop_124", "prop_341", "thm_120",
        )
    )
    report(
        "3 exhaustive sweep n=5",
        rep.failures == 0 and exercised and elapsed < 300.0,
        f"{rep.total} matroids, {rep.failures} failures, {elapsed:.2f}s",
    )


def test_criterion_4_constructor_round_trip():
    ground = GroundSet("12345")
    checked = 0
    ok = True
    for support in ground.all_subsets():
        for p in all_partitions(support):
            m = make_unique_partition_matroid(ground, p)
            if len(m.bases) != combination_number(p):
                ok = False
            if len(p) > 0:
                if forming_family(m) != p.family:
                    ok = False
                if recover_partition(m) != p:
                    ok = False
            else:
                # empty partition gives the rank-zero matroid
                if m.rank != 0 or len(m.bases) != 1:
                    ok = False
            checked += 1
    report("4 constructor round-trip", ok and checked == 203, f"{checked} partitions")


def test_criterion_5_duality():
    ok = True
    for m in population(5):
        d = m.dual()
        if d.dual() != m or m.rank + d.rank != m.ground.size:
            ok = False
            break
    report("5 duality involution and rank sum", ok, f"{len(population(5))} matroids")


def test_criterion_6_negative_path_determinism():
    def mk(labels, *bases):
        g = GroundSet(labels)
        return Matroid.from_bases(g, SetFamily(g, [g.subset(*b) for b in bases]))

    uniform = mk("123", "12", "13", "23")
    five = mk("12345", "123", "124", "134", "125", "145")

    def witnesses():
        return (
            is_unique_expansion(uniform).witness,
            is_unique_exchange(five).witness,
            is_union_minimal(uniform).witness,
            is_intersection_minimal(uniform.dual()).witness,
        )

    reference = witnesses()
    ok = all(w is not None for w in reference)
    for _ in range(10):
        ok = ok and witnesses() == reference
    report("6 negative-path determinism", ok)


def test_criterion_7_oracle_agreement():
    rng = random.Random(20260808)
    pop = population(5)
    ok = True
    for _ in range(1000):
        m = rng.choice(pop)
        x = m.ground.from_mask(rng.randrange(1 << m.ground.size))
        if m.rank_of(x) != rank_oracle(m, x):
            ok = False
            break
        if expansion(m, x) != expansion_oracle(m, x):
            ok = False
            break
    report("7 rank and expansion oracle agreement", ok, "1000 pairs")
