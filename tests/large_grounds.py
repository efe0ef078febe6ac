"""Run the full check registry on three unique expansion matroids past 16 elements.

The matroids are the two bases {0} and {1} with the other 38 elements
loops, U(1,40), and the 24-element one-per-block matroid of the blocks
{0,1}, {2,3}, ..., {22,23} (4,096 bases).  Every check decides them from
their bases, with no walk over all subsets of the ground set, so a check
that takes one hangs here.  Only the exhaustive minimality searches of
`thm_334` and `thm_552` are capped, on the two matroids with more than 20
bases.  Prints the JSON report to stdout and its digest (see
`report_digest.py`) to stderr; exits 3 on any failed check, else 1 when the
digest differs from the pinned one:

    PYTHONPATH=src python tests/large_grounds.py
"""

from __future__ import annotations

import json
import sys
from itertools import product

from matroidlab import GroundSet, Matroid, SetFamily, verify

from report_digest import report_digest

PINNED = "034d6d7dc1cf5c35fb1251b618de345af0feb35371143d52c4b30aea23eb65ec"


def rank_one_uniform(n: int) -> Matroid:
    """U(1,n) on the labels 0..n-1."""
    g = GroundSet(str(i) for i in range(n))
    return Matroid.from_bases(g, SetFamily(g, [g.subset(x) for x in g.labels]))


def pairs_one_per_block(blocks: int) -> Matroid:
    """The one-per-block matroid of the blocks {0,1}, {2,3}, ... on the
    labels 0..2*blocks-1: its bases pick one element of each pair."""
    g = GroundSet(str(i) for i in range(2 * blocks))
    picks = product(*[(str(2 * i), str(2 * i + 1)) for i in range(blocks)])
    return Matroid.from_bases(g, SetFamily(g, [g.subset(*p) for p in picks]))


def large_ground_matroids() -> list[Matroid]:
    g = GroundSet(str(i) for i in range(40))
    two_bases = SetFamily(g, [g.subset("0"), g.subset("1")])
    return [Matroid.from_bases(g, two_bases), rank_one_uniform(40), pairs_one_per_block(12)]


def main() -> int:
    report = verify(large_ground_matroids())
    text = report.to_json()
    print(text)
    digest = report_digest(json.loads(text))
    print(digest, file=sys.stderr)
    if report.failures:
        return 3
    return 0 if digest == PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
