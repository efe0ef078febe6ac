"""Run the full check registry on every unique expansion matroid on 8 elements.

By `thm_52` the unique expansion matroids of rank > 0 are the one-per-block
matroids: one for each nonempty support S of {1..8} and set partition of S,
whose bases pick one element from each block, every element outside S being
a loop.  That makes Bell(9) - 1 = 21,146 matroids, with at most 18 bases, so
no minimality search is capped.  They are built from their bases and
streamed into `verify`; the partitions come from this script's own
recursion, not from the library's partition walk, which `thm_33` and
`prop_103` read.  Prints the JSON report to stdout and its digest (see
`report_digest.py`) to stderr; exits 3 on any failed check, else 1 unless the
population is 21,146 matroids, nothing is capped and the digest is the
pinned one:

    PYTHONPATH=src python tests/one_per_block.py
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, product
from typing import Iterator

from matroidlab import GroundSet, Matroid, SetFamily, verify

from report_digest import report_digest

N = 8
POPULATION = 21146  # Bell(9) - 1
PINNED = "bc295a6dea9f2d419acdd0b3168d579f64f7e9e004f512f5c2fe5ede03b88442"


def set_partitions(elements: list[str]) -> Iterator[list[list[str]]]:
    """Every set partition of `elements`, once each: the first element opens
    a block of its own or joins a block of a partition of the rest."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for i, block in enumerate(blocks):
            yield [*blocks[:i], [first, *block], *blocks[i + 1:]]


def one_per_block_matroids(n: int) -> Iterator[Matroid]:
    """The one-per-block matroid of every set partition of every nonempty
    subset of the labels 1..n, on the ground set {1..n}."""
    g = GroundSet(str(i) for i in range(1, n + 1))
    for size in range(1, n + 1):
        for support in combinations(g.labels, size):
            for blocks in set_partitions(list(support)):
                bases = SetFamily(g, [g.subset(*pick) for pick in product(*blocks)])
                yield Matroid.from_bases(g, bases)


def main() -> int:
    report = verify(one_per_block_matroids(N))
    text = report.to_json()
    print(text)
    digest = report_digest(json.loads(text))
    print(digest, file=sys.stderr)
    if report.failures:
        return 3
    whole = report.total == POPULATION and not report.capped
    return 0 if whole and digest == PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
