"""Check a `verify --n 6 --json` report against its pinned digest.

Usage: python tests/report_digest.py FILE

The digest is the sha256 of the report without its `duration_ms` field,
serialized with sorted keys.  Prints the digest it computed and exits 1 when
it differs from the pinned one, so a change that should keep the report
unchanged is checked to do so.
"""

import hashlib
import json
import sys

PINNED = "73cc71a3fd6bfbf404dcc17930bad64a4685ea94cce796556b6c4c539704e703"


def report_digest(doc: dict) -> str:
    doc = {k: v for k, v in doc.items() if k != "duration_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/report_digest.py FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        digest = report_digest(json.load(f))
    print(digest)
    return 0 if digest == PINNED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
