"""Spans around the benchmark's calls into matroidlab, and the stopwatch that
scales a child's times to a reference machine speed.

A span is (id, parent id, name, layer, start, end, calls).  `calls` counts the
library calls the span covers, so a batch of micro-timing repetitions is one
span.  Spans live in a list until the process ends and are then handed to the
parent as plain dicts; nothing is written while a pass is being timed.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# the seven library modules; `errors` does no work of its own
MODULES = (
    "setalgebra", "matroid", "forming", "classify", "enumeration", "harness", "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, calls: int = 1):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "calls": calls,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer self time (seconds) and call count.

    A span's self time is its duration minus the part its children cover;
    children of one span never overlap because the benchmark is sequential.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = s["parent"]
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        row = out.setdefault(s["layer"], {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += s["calls"]
    return out


def calibration_ms() -> float:
    """Milliseconds for a fixed pure-Python loop of dict, sort and integer work.

    The loop uses nothing from the library, so no change to matroidlab can
    move it.  It allocates almost no objects the cyclic collector tracks, so
    it triggers no collection, whose cost would grow with the child's heap,
    and it does not move peak RSS.
    """
    start = perf_counter()
    for round_ in range(8):
        table: dict[int, int] = {}
        for i in range(3000):
            k = (i * 7919 + round_) % 10007
            table[k] = table.get(k & 1023, 0) + (i & 31)
        bits = 0
        for k in sorted(table, key=table.__getitem__):
            bits ^= k << (k & 31)
        del bits
    return (perf_counter() - start) * 1000


class Stopwatch:
    """A child's timings, scaled to a reference machine speed.

    Other tenants of a shared machine switch its speed between levels up to
    1.6x apart, for seconds at a time.  The stopwatch interleaves a fixed
    calibration loop with the timed work (before, after, and every EVERY_S
    between operations) and scales each timed interval by REF_MS over the
    median of the calibration samples around it.  Times then read as
    on a machine where the loop takes REF_MS, and most of the switching
    cancels.  Calibration time is never inside a timed interval.
    """

    REF_MS = 10.0  # the loop's time on the reference machine
    BRACKET = 4  # samples before and after the timed work
    EVERY_S = 0.25  # at most this long between samples inside the work
    SIDE = 2  # samples taken on each side of an interval to scale it

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, ms)
        self.segments: list[tuple[float, float]] = []  # the pass, (start, end)
        self.ops: list[tuple[str, float, float]] = []  # (key, start, end)
        self._last = perf_counter()

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            ms = calibration_ms()
            self.samples.append((start + ms / 2000, ms))
        self._last = perf_counter()

    def tick(self) -> None:
        """Take a sample if the last one is more than EVERY_S old."""
        if perf_counter() - self._last >= self.EVERY_S:
            self.calibrate()

    def segment(self, start: float, end: float) -> None:
        """Count [start, end] toward the timed pass."""
        self.segments.append((start, end))

    def op(self, key: str, start: float, end: float) -> None:
        """Record one operation's latency under `key`."""
        self.ops.append((key, start, end))

    def factor(self, start: float, end: float) -> float:
        """Scale for [start, end]: the samples inside it plus SIDE on each side."""
        before = [ms for t, ms in self.samples if t < start][-self.SIDE:]
        inside = [ms for t, ms in self.samples if start <= t <= end]
        after = [ms for t, ms in self.samples if t > end][: self.SIDE]
        return self.REF_MS / statistics.median(before + inside + after)

    def pass_s(self) -> float:
        return sum((e - s) * self.factor(s, e) for s, e in self.segments)

    def latencies_ms(self) -> dict[str, float]:
        """Each key's fastest scaled run."""
        best: dict[str, float] = {}
        for key, s, e in self.ops:
            ms = (e - s) * 1000 * self.factor(s, e)
            best[key] = min(ms, best.get(key, ms))
        return best
