"""Check a `verify` JSON report against its pinned digest.

Usage: python tests/report_digest.py FILE

The digest is the sha256 of the report without its `duration_ms` field,
serialized with sorted keys.  The pinned digest is picked by the report's
population total: 4,304 matroids for `verify --n 6`, 79,468 for
`verify --n 7`, 21,146 for `one_per_block.py` and 3 for `large_grounds.py`,
whose own gates read this table too.  Prints the digest it computed and then
the report's `duration_ms`, and exits 1 when the digest differs from the
pinned one, or when no digest is pinned for that total, so a change that
should keep the report unchanged is checked to do so.
"""

import hashlib
import json
import sys

# population total -> digest of the report over that population
PINNED = {
    4304: "73cc71a3fd6bfbf404dcc17930bad64a4685ea94cce796556b6c4c539704e703",
    79468: "ea2b95521f6ea6a1ffecabffe45565d9945069411423e8093c47cba30736b602",
    21146: "bc295a6dea9f2d419acdd0b3168d579f64f7e9e004f512f5c2fe5ede03b88442",
    3: "034d6d7dc1cf5c35fb1251b618de345af0feb35371143d52c4b30aea23eb65ec",
}


def report_digest(doc: dict) -> str:
    doc = {k: v for k, v in doc.items() if k != "duration_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/report_digest.py FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        doc = json.load(f)
    digest = report_digest(doc)
    print(digest)
    print("duration_ms", doc["duration_ms"])
    return 0 if digest == PINNED.get(doc["population"]["total"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
