"""Compare the intersection minimality verdict with the route through the
dual, and count the paper's classes per n against their closed forms.

Streams every matroid with n <= 7 (79,468 in all) and compares
`intersection_minimal(m)`, read off the distinct expansion masks (the
cocircuits), with `union_minimal(m.dual())`, the paper's duality (`thm_334`)
applied to the union certificate.  Prints, per n, the number of intersection
minimal, union minimal, unique expansion (rank > 0) and unique exchange
matroids beside their closed forms: Bell(n + 1), Bell(n + 1), Bell(n + 1) - 1
and the unique exchange series, each computed by its recurrence.  Prints the
first disagreements; exits 1 on any disagreement, on any count that differs
from its closed form, and unless the intersection minimal total is 5,294:

    PYTHONPATH=src python tests/intersection_route.py
"""

from __future__ import annotations

import sys
from math import comb

from matroidlab import (
    enumerate_matroids,
    intersection_minimal,
    is_unique_exchange,
    is_unique_expansion,
    union_minimal,
)

N = 7
TOTAL = 5294  # Bell(2) + ... + Bell(8)
SHOWN = 10  # disagreements printed; every one is counted
COLUMNS = ("intersection minimal", "union minimal", "unique expansion", "unique exchange")


def bell_numbers(count: int) -> list[int]:
    """Bell(0..count - 1), by Bell(k + 1) = sum over j of C(k, j) Bell(j)."""
    bell = [1]
    while len(bell) < count:
        k = len(bell) - 1
        bell.append(sum(comb(k, j) * bell[j] for j in range(k + 1)))
    return bell


def unique_exchange_numbers(count: int) -> list[int]:
    """a(0..count - 1) of the unique exchange series: set partitions whose
    blocks weigh 2 at size 1, 1 at size 2 and 2 from size 3 on, by
    a(n) = sum over k of C(n - 1, k - 1) w(k) a(n - k), with a(0) = 1."""
    weight = {1: 2, 2: 1}
    a = [1]
    while len(a) < count:
        n = len(a)
        a.append(sum(comb(n - 1, k - 1) * weight.get(k, 2) * a[n - k] for k in range(1, n + 1)))
    return a


def closed_forms(n: int) -> tuple[int, ...]:
    """The closed form of each of `COLUMNS` at n elements."""
    bell = bell_numbers(n + 2)[n + 1]
    return bell, bell, bell - 1, unique_exchange_numbers(n + 1)[n]


def census_verdicts(m) -> tuple[bool, ...]:
    """Whether `m` belongs to each of `COLUMNS`."""
    return (
        intersection_minimal(m),
        union_minimal(m),
        m.rank > 0 and is_unique_expansion(m).verdict,
        is_unique_exchange(m).verdict,
    )


def main() -> int:
    disagreements = 0
    closed = True
    total = 0
    for n in range(1, N + 1):
        row = [0] * len(COLUMNS)
        for m in enumerate_matroids(n):
            verdicts = census_verdicts(m)
            if verdicts[0] != union_minimal(m.dual()):
                disagreements += 1
                if disagreements <= SHOWN:
                    print(f"disagreement: {m.to_doc()}", file=sys.stderr)
            row = [count + v for count, v in zip(row, verdicts)]
        want = closed_forms(n)
        closed &= tuple(row) == want
        total += row[0]
        print(f"n={n}: " + ", ".join(
            f"{count} {name} (closed form {form})" for name, count, form in zip(COLUMNS, row, want)
        ))
    print(f"intersection minimal total: {total}, disagreements: {disagreements}")
    return 0 if closed and total == TOTAL and not disagreements else 1


if __name__ == "__main__":
    sys.exit(main())
