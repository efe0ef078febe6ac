"""Compare the intersection minimality verdict with the route through the dual.

Streams every matroid with n <= 7 (79,468 in all) and compares
`intersection_minimal(m)`, read off the distinct expansion masks (the
cocircuits), with `union_minimal(m.dual())`, the paper's duality (`thm_334`)
applied to the union certificate.  Prints the number of intersection minimal
matroids per n and the first disagreements; exits 1 on any disagreement, and unless each count is
Bell(n + 1), computed by its recurrence, and the total is 5,294:

    PYTHONPATH=src python tests/intersection_route.py
"""

from __future__ import annotations

import sys
from math import comb

from matroidlab import enumerate_matroids, intersection_minimal, union_minimal

N = 7
TOTAL = 5294  # Bell(2) + ... + Bell(8)
SHOWN = 10  # disagreements printed; every one is counted


def bell_numbers(count: int) -> list[int]:
    """Bell(0..count - 1), by Bell(k + 1) = sum over j of C(k, j) Bell(j)."""
    bell = [1]
    while len(bell) < count:
        k = len(bell) - 1
        bell.append(sum(comb(k, j) * bell[j] for j in range(k + 1)))
    return bell


def main() -> int:
    bell = bell_numbers(N + 2)
    counts = {}
    disagreements = 0
    for n in range(1, N + 1):
        counts[n] = 0
        for m in enumerate_matroids(n):
            verdict = intersection_minimal(m)
            if verdict != union_minimal(m.dual()):
                disagreements += 1
                if disagreements <= SHOWN:
                    print(f"disagreement: {m.to_doc()}", file=sys.stderr)
            counts[n] += verdict
        print(f"n={n}: {counts[n]} intersection minimal (Bell({n + 1}) = {bell[n + 1]})")
    total = sum(counts.values())
    print(f"total: {total}, disagreements: {disagreements}")
    closed = all(counts[n] == bell[n + 1] for n in counts) and total == TOTAL
    return 0 if closed and not disagreements else 1


if __name__ == "__main__":
    sys.exit(main())
