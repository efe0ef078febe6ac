"""Check a `verify --n 6 --json` or `verify --n 7 --json` report against its
pinned digest.

Usage: python tests/report_digest.py FILE

The digest is the sha256 of the report without its `duration_ms` field,
serialized with sorted keys.  The pinned digest is picked by the report's
population total: 4,304 matroids for n<=6, 79,468 for n<=7.  Prints the
digest it computed and exits 1 when it differs from the pinned one, or when
no digest is pinned for that total, so a change that should keep the report
unchanged is checked to do so.
"""

import hashlib
import json
import sys

# population total -> digest of the `verify --n N --json` report
PINNED = {
    4304: "73cc71a3fd6bfbf404dcc17930bad64a4685ea94cce796556b6c4c539704e703",
    79468: "ea2b95521f6ea6a1ffecabffe45565d9945069411423e8093c47cba30736b602",
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
    return 0 if digest == PINNED.get(doc["population"]["total"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
