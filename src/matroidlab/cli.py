"""Command-line interface: analyze, transform and verify matroid documents.

Documents are JSON objects with a `ground_set` list and exactly one of
`bases` / `independents` (lists of label lists); labels given as numbers are
stringified.  Emitted documents always use the canonical bases form, so
parse -> emit -> parse round-trips to an identical matroid.

Exit codes: 0 success, 1 the document describes an invalid matroid, 2 I/O or
parse failure (argparse uses 2 for usage errors as well), 3 the verification
sweep found a failing check.  `forming` on a rank-0 matroid also exits 1, with
"error: secondary bases are undefined at rank zero", although the document is
a valid matroid.

`main` may be called repeatedly in one process: it parses with one parser,
built by `build_parser()` on the first call and reused by every later one.
argparse keeps no state between parses, so each call sees only its own
arguments; a one-shot `matroidlab` run builds one parser, as before.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

from .classify import (
    _verdicts,
    intersection_minimal,
    is_intersection_minimal,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    recover_partition,
    union_minimal,
)
from .enumeration import count_matroids, enumerate_matroids
from .errors import AxiomError, ParseError, RankZero
from .forming import _forming_blocks, forming_family, secondary_bases
from .harness import lookup_check, theorem_registry, verify
from .matroid import Matroid, make_partition_matroid
from .setalgebra import GroundSet, Partition, SetFamily


def parse_matroid_file(path: str) -> Matroid:
    """Load and validate a matroid document; ParseError on malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack allows
        raise ParseError(f"{path}: {exc}") from None
    return Matroid.from_doc(doc)


def _emit_doc(doc: dict, compact: bool) -> None:
    print(json.dumps(doc) if compact else json.dumps(doc, indent=2))


def _family_doc(family: SetFamily) -> list[list[str]]:
    render = family.ground._render
    return [list(render(mask)) for mask in family._order]


def _fmt_family(family: SetFamily) -> str:
    return " ".join(repr(s) for s in family) if len(family) else "(none)"


def cmd_analyze(args: argparse.Namespace) -> int:
    m = parse_matroid_file(args.file)
    out: dict = m.to_doc()
    out["rank"] = m.rank
    out["support"] = list(m.support().labels())

    fam = forming_family(m) if m.rank > 0 else None
    recovered = recover_partition(m) if m.rank > 0 else None
    # every verdict comes from one pass or the certificate, at any size; only
    # the text report builds the witness of a false one
    expansion, exchange = _verdicts(m)
    verdicts = {
        "unique_expansion": expansion if m.rank > 0 else None,
        "unique_exchange": exchange,
        "union_minimal": union_minimal(m),
        "intersection_minimal": intersection_minimal(m),
    }

    # a recovered partition's family is the forming family itself
    out["forming_family"] = _family_doc(fam) if fam is not None else None
    out["recovered_partition"] = out["forming_family"] if recovered is not None else None
    out.update(verdicts)

    if args.json:
        print(json.dumps(out))
        return 0

    def verdict_line(name: str, classify) -> str:
        if verdicts[name] is None:
            return "n/a"
        if verdicts[name]:
            return "yes"
        return f"no (witness: {classify(m).witness})"

    print(f"ground set: {' '.join(m.ground.labels)}")
    print(f"rank: {m.rank}")
    print(f"bases ({len(m.bases)}): {_fmt_family(m.bases)}")
    print(f"support: {m.support()!r}")
    print(f"forming family: {_fmt_family(fam) if fam is not None else 'n/a (rank 0)'}")
    print(
        "recovered partition: "
        + (_fmt_family(recovered.family) if recovered is not None else "none")
    )
    print(f"unique expansion: {verdict_line('unique_expansion', is_unique_expansion)}")
    print(f"unique exchange: {verdict_line('unique_exchange', is_unique_exchange)}")
    print(f"union minimal: {verdict_line('union_minimal', is_union_minimal)}")
    print("intersection minimal: "
          + verdict_line("intersection_minimal", is_intersection_minimal))
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    m = parse_matroid_file(args.file)
    _emit_doc(m.dual().to_doc(), args.json)
    return 0


def cmd_forming(args: argparse.Namespace) -> int:
    m = parse_matroid_file(args.file)
    try:
        secondaries = secondary_bases(m)
        global_family = forming_family(m)
        walk = _forming_blocks(m)  # every base's blocks, no membership probe
        per_base = [
            (m.ground.from_mask(b), SetFamily.from_masks(m.ground, k)) for b, k in walk
        ]
    except RankZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "secondary_bases": _family_doc(secondaries),
                    "forming_family": _family_doc(global_family),
                    "per_base": [
                        {"base": list(b.labels()), "forming_family": _family_doc(fam)}
                        for b, fam in per_base
                    ],
                }
            )
        )
        return 0
    print(f"secondary bases: {_fmt_family(secondaries)}")
    print(f"forming family: {_fmt_family(global_family)}")
    for b, fam in per_base:
        print(f"forming family wrt {b!r}: {_fmt_family(fam)}")
    return 0


def _split_labels(raw: str) -> list[str]:
    labels = [part.strip() for part in raw.split(",") if part.strip()]
    if not labels:
        raise ParseError(f"no labels in {raw!r}")
    return labels


def cmd_make_partition(args: argparse.Namespace) -> int:
    """`make-pm` with its `--cap` list, or `make-upm` with every cap 1.

    The i-th `--cap` belongs to the i-th `--block`; each cap is looked up by
    its block, since the partition lists its blocks in canonical order."""
    ground = GroundSet(_split_labels(args.ground))
    blocks = [ground.subset(*_split_labels(b)) for b in args.block]
    caps = [1] * len(blocks) if args.cap is None else args.cap
    if len(caps) != len(blocks):
        raise ValueError(f"{len(caps)} caps for {len(blocks)} blocks")
    p = Partition(SetFamily(ground, blocks))
    if len(p) != len(blocks):
        raise ValueError("duplicate blocks")
    cap_of = dict(zip(blocks, caps))
    m = make_partition_matroid(ground, p, tuple(cap_of[b] for b in p))
    _emit_doc(m.to_doc(), compact=True)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    stream = enumerate_matroids(args.n, args.rank)  # rejects a bad --n first
    if args.rank is not None and not 0 <= args.rank <= args.n:
        raise ParseError(f"--rank must lie in 0..{args.n}, got {args.rank}")
    if args.count_only:
        print(count_matroids(args.n, args.rank))
        return 0
    for m in stream:
        print(json.dumps(m.to_doc()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ParseError(f"--n must be at least 1, got {args.n}")
    registry = theorem_registry()
    if args.checks is not None:
        wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not wanted:
            raise ParseError(f"--checks names no check id: {args.checks!r}")
        repeated = sorted({c for c in wanted if wanted.count(c) > 1})
        if repeated:
            raise ParseError(f"--checks repeats {', '.join(repeated)}")
        registry = [lookup_check(check_id) for check_id in wanted]
    # each call rejects a bad n when made, before any matroid is drawn
    streams = [enumerate_matroids(n) for n in range(1, args.n + 1)]
    report = verify(chain.from_iterable(streams), registry)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand; `main` keeps the first one built."""
    parser = argparse.ArgumentParser(
        prog="matroidlab",
        description="Analyze, transform and verify matroids given by base families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a matroid document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", help="emit the dual matroid document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="compact one-line output")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("forming", help="print secondary bases and forming families")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_forming)

    p = sub.add_parser("make-upm", help="build a one-element-per-block partition matroid")
    p.add_argument("--ground", required=True, help="comma-separated labels")
    p.add_argument("--block", action="append", required=True,
                   help="comma-separated labels, repeatable")
    p.set_defaults(func=cmd_make_partition, cap=None)

    p = sub.add_parser("make-pm", help="build a capped partition matroid")
    p.add_argument("--ground", required=True, help="comma-separated labels")
    p.add_argument("--block", action="append", required=True,
                   help="comma-separated labels, repeatable")
    p.add_argument("--cap", action="append", required=True, type=int,
                   help="cap for the matching --block, repeatable")
    p.set_defaults(func=cmd_make_partition)

    p = sub.add_parser("enumerate", help="enumerate all matroids on n elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the theorem checks over all matroids of sizes 1..n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default=None, help="comma-separated check ids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


# built on the first `main` call, not at import
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except AxiomError as exc:
        print(f"invalid matroid: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
