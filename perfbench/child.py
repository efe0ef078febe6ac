"""One repetition of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload sweep --seed 1 --index 0 \
        --mode plain --t0 <time.monotonic() of the parent at spawn>

`--mode plain` times the workload's pass untraced; `--mode traced` runs it
with a span around every call into the library.  The `layers` workload (traced
only) times each module's public functions on the literal fixtures.  The child
imports matroidlab from the checkout's `src/`, never from an installed copy,
and reports its times scaled by tracing.Stopwatch next to the unscaled ones.
It leaves the CPU affinity alone, so worker processes the library starts may
use every core.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "work"


def _import_library() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import matroidlab

    if not Path(matroidlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"matroidlab imported from {matroidlab.__file__}, not {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "enumerate", "analyze", "layers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    _import_library()
    import workloads
    from layers import run_layers
    from tracing import Stopwatch, Tracer

    if args.workload == "layers" and args.mode != "traced":
        parser.error("the layers child records spans, so it runs with --mode traced")
    tracer = Tracer() if args.mode == "traced" else None
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "sweep":
            inputs = workloads.sweep_inputs(args.seed, args.index)
        elif args.workload == "analyze":
            inputs = workloads.analyze_inputs(args.seed, args.index, workdir)
        setup_s = time.monotonic() - args.t0
        setup_end = time.perf_counter()
        watch = Stopwatch()
        watch.calibrate(Stopwatch.BRACKET)
        if args.workload == "layers":
            result = run_layers(tracer, workdir)
        elif args.workload == "sweep":
            result = (workloads.sweep_traced(inputs, watch, tracer) if tracer
                      else workloads.sweep_pass(inputs, watch))
        elif args.workload == "enumerate":
            result = (workloads.enumerate_traced(watch, tracer) if tracer
                      else workloads.enumerate_pass(watch))
        else:
            result = workloads.analyze_pass(inputs, watch, tracer)
        watch.calibrate(Stopwatch.BRACKET)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s * watch.factor(setup_end - setup_s, setup_end)
    result["raw_setup_s"] = setup_s
    result["pass_s"] = watch.pass_s()
    result["raw_pass_s"] = sum(end - start for start, end in watch.segments)
    result["latencies_ms"] = watch.latencies_ms()
    result["cal_ms"] = [ms for _, ms in watch.samples]
    # one factor for figures that are not a timed interval of their own
    result["speed"] = Stopwatch.REF_MS / statistics.median(result["cal_ms"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
