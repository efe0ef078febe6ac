"""matroidlab benchmark: `sweep`, `enumerate` and `analyze`, untraced or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Each repetition runs in a fresh interpreter (child.py), one child at a time,
so the library's caches start cold as they do for a command-line user.
Every time is scaled by calibration loops run alongside it (see
tracing.Stopwatch) to read as on a reference machine; unscaled figures are
printed alongside.  With `--trace 0` children are started until `--seconds`
have passed (at least three) and the end-to-end metrics are printed; with
`--trace 1` the run
prints the per-layer metrics from one traced child per workload plus the
fixture timings, whichever workload is named.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exit status: 0 when every
correctness gate holds, 1 when one fails, 2 when the benchmark itself could
not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import MODULES, self_times

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("sweep", "enumerate", "analyze")
MIN_CHILDREN = 3
MAX_CHILDREN = 12
# every run must end within 180 s, builds excepted
DEADLINE_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result (not a correctness failure)."""


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_child(workload: str, seed: int, index: int, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchmarkError(f"no time left for {workload} child {index}")
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 7919 + index) % 4294967296))
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(CHILD), "--workload", workload,
             "--seed", str(seed), "--index", str(index), "--mode", mode,
             "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} child {index} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} child {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"{workload} child {index} printed no result") from None


def plain_run(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    start = time.monotonic()
    children: list[dict] = []
    while len(children) < MAX_CHILDREN and (
        len(children) < MIN_CHILDREN or time.monotonic() - start < seconds
    ):
        children.append(run_child(workload, seed, len(children), "plain", deadline))

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    if workload == "sweep":
        digests = {c["digest"] for c in children}
        if len(digests) > 1:
            failed += 1
            errors.append(f"report differs between repetitions: {sorted(digests)}")
    # Every child runs the same operations under other labels; an operation's
    # latency is its median across children, which drops a child that ran
    # through a slow phase of the shared machine.
    latencies = [
        statistics.median(c["latencies_ms"][key] for c in children)
        for key in children[0]["latencies_ms"]
    ]
    p95 = statistics.quantiles(latencies, n=100)[94]
    n = len(children)
    values = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), n),
        "ops_per_s": (statistics.median(c["ops"] / c["pass_s"] for c in children), n),
        "op_p50_ms": (statistics.median(latencies), len(latencies)),
        "op_p95_ms": (p95, len(latencies)),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in children), n),
        "ok_share": ((attempted - failed) / attempted, attempted),
    }
    notes = [
        f"{n} children; {len(latencies)} operations timed in each, "
        f"{sum(x > p95 for x in latencies)} beyond op_p95_ms",
        "machine speed (reference calibration / measured) per child: "
        + ", ".join(f"{c['speed']:.3f}" for c in children),
        "unscaled ops_per_s per child: "
        + ", ".join(f"{c['ops'] / c['raw_pass_s']:.5g}" for c in children),
    ]
    return {"values": values, "attempted": attempted, "failed": failed,
            "errors": errors, "notes": notes, "children": children}


def traced_run(seed: int, deadline: float) -> dict:
    """One traced child per workload plus the fixture timings, and three
    untraced `analyze` children for `trace_overhead`.

    The result does not depend on the named workload: `analyze` is the only
    workload whose traced pass makes the same library calls as its untraced
    one, so it alone gives a tracer overhead.
    """
    refs = [run_child("analyze", seed, i, "plain", deadline) for i in range(MIN_CHILDREN)]
    traced = {w: run_child(w, seed, 0, "traced", deadline) for w in WORKLOADS + ("layers",)}
    layers = traced["layers"]
    values: dict[str, tuple[float, int]] = {}
    for name, v in layers["metrics"].items():
        per_second = name.endswith("_per_s")
        values[name] = (v / layers["speed"] if per_second else v * layers["speed"], 1)
    enum = traced["enumerate"]
    for r, seconds in enum["rank_s"].items():
        values[f"enumeration.rank{r}_s"] = (seconds * enum["speed"], 1)
    sweep = traced["sweep"]
    table = {
        check_id: {n: t * sweep["speed"] for n, t in row.items()}
        for check_id, row in sweep["table"].items()
    }
    sizes = sorted({n for row in table.values() for n in row}, key=int)
    for check_id, row in table.items():
        values[f"harness.check.{check_id}_s"] = (sum(row.values()), len(row))
    for n in sizes:
        values[f"harness.size.{n}_s"] = (sum(row[n] for row in table.values()), len(table))
    untraced = statistics.median(c["pass_s"] for c in refs)
    values["trace_overhead"] = (traced["analyze"]["pass_s"] / untraced, len(refs))
    per_layer: dict[str, dict[str, float]] = {}
    for child in traced.values():
        for layer, row in self_times(child["spans"]).items():
            total = per_layer.setdefault(layer, {"self_s": 0.0, "calls": 0})
            total["self_s"] += row["self_s"] * child["speed"]
            total["calls"] += row["calls"]
    for layer in MODULES:
        if layer in per_layer:
            values[f"layer.{layer}.self_s"] = (per_layer[layer]["self_s"], len(traced))

    everyone = refs + list(traced.values())
    notes = ["self time (s) and library calls per layer, over the traced children's spans:"]
    notes += [f"  {layer:<12} {row['self_s']:>10.4f} s {row['calls']:>9} calls"
              for layer, row in per_layer.items()]
    notes += ["per-check x per-size verify time (ms) on the sweep population:",
              check_table(table, sizes)]
    return {
        "values": values,
        "attempted": sum(c["attempted"] for c in everyone),
        "failed": sum(c["failed"] for c in everyone),
        "errors": [e for c in everyone for e in c["errors"]],
        "notes": notes,
        "children": refs,
        "spans": {w: c.pop("spans") for w, c in traced.items()},
        "traced": traced,
    }


def check_table(table: dict[str, dict[str, float]], sizes: list[str]) -> str:
    lines = [f"{'check':<16}" + "".join(f"{'n=' + n:>9}" for n in sizes) + f"{'total':>10}"]
    rows = sorted(table.items(), key=lambda kv: -sum(kv[1].values()))
    for check_id, row in rows:
        cells = "".join(f"{row[n] * 1000:>9.1f}" for n in sizes)
        lines.append(f"{check_id:<16}{cells}{sum(row.values()) * 1000:>10.1f}")
    totals = "".join(f"{sum(r[n] for r in table.values()) * 1000:>9.1f}" for n in sizes)
    grand = sum(sum(r.values()) for r in table.values()) * 1000
    lines.append(f"{'total':<16}{totals}{grand:>10.1f}")
    return "\n".join(lines)


def report(workload: str, run: dict, declared: list[dict], prefix: str = "") -> dict:
    metrics = {}
    for m in declared:
        if m["name"] not in run["values"]:
            raise BenchmarkError(f"{workload}: metric {m['name']} was not measured")
        value, count = run["values"][m["name"]]
        metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} n={count}")
    for note in run["notes"]:
        print("  " + note.replace("\n", "\n  "))
    for error in run["errors"][:20]:
        print(f"  FAILED: {error}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        declared = bench["per_layer"] if args.trace else bench["end_to_end"]
        env = environment(args.seed)
        print("env: " + json.dumps(env))
        # a traced run covers every workload at once (see traced_run)
        if args.trace:
            chosen = ("traced",)
        else:
            chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed, record = {}, 0, 0, {"env": env, "runs": {}}
        for workload in chosen:
            deadline = time.monotonic() + DEADLINE_S
            print(f"{workload}:" if args.trace else f"{workload} (untraced):")
            run = (traced_run(args.seed, deadline) if args.trace
                   else plain_run(workload, args.seed, seconds, deadline))
            prefix = f"{workload}." if len(chosen) > 1 else ""
            metrics.update(report(workload, run, declared, prefix))
            attempted += run["attempted"]
            failed += run["failed"]
            record["runs"][workload] = run
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, default=str), encoding="utf-8")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
