"""Run the full check registry on two 40-element unique expansion matroids.

The matroids are the two bases {0} and {1} with the other 38 elements loops,
and U(1,40).  Both lie past the bound of the definitional scans, so a registry
that scans all 2^40 subsets hangs here instead of tallying those checks as
capped.  Prints the JSON report to stdout and its digest (see
`report_digest.py`) to stderr; exits 3 on any failed check, else 1 when the
digest differs from the pinned one:

    PYTHONPATH=src python tests/large_grounds.py
"""

from __future__ import annotations

import json
import sys

from matroidlab import GroundSet, Matroid, SetFamily, verify

from report_digest import report_digest

PINNED = "42d1bd7da89695b93db220fee34992a318ab5cf3a488e055cabc0e68c7b6d566"


def rank_one_uniform(n: int) -> Matroid:
    """U(1,n) on the labels 0..n-1."""
    g = GroundSet(str(i) for i in range(n))
    return Matroid.from_bases(g, SetFamily(g, [g.subset(x) for x in g.labels]))


def large_ground_matroids() -> list[Matroid]:
    g = GroundSet(str(i) for i in range(40))
    two_bases = SetFamily(g, [g.subset("0"), g.subset("1")])
    return [Matroid.from_bases(g, two_bases), rank_one_uniform(40)]


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
