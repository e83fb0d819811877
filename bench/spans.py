"""In-memory spans and counts for traced benchmark runs.

A span is recorded around each call the benchmark makes into a ratindex
module, and around each pass, round, set-up and probe of the benchmark
itself.  Spans carry a name, start and end times (seconds since the tracer
was made), the index of the enclosing span, and the group (one round, one
set-up repetition or one probe) they belong to.  Nothing is written until
``dump`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.group = ""
        self.origin = time.perf_counter()
        # [name, start, end, parent index or None, group]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.origin, None, parent, self.group])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter() - self.origin

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[self.group][name] += value

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per group, the summed self time of the spans of each name: a
        span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, group in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, group) in enumerate(self.spans):
            totals[group][name] += (end - start) - child_time[index]
        return totals

    def dump(self, path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "group": g}
            for n, s, e, p, g in self.spans
        ]
        counts = {g: dict(c) for g, c in self.counts.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": spans, "counts": counts}, handle)


def _reference_step() -> int:
    rows = [(i, str(i), (i, i)) for i in range(1500)]
    return len({row[1]: row for row in rows})


#: Duration of one reference step on the machine the README's figures come
#: from (2 vCPUs, Python 3.11.7); it only sets the scale of reported times.
REFERENCE_STEP_S = 0.0005
REFERENCE_INTERVAL_S = 0.05


class PassClock:
    """Times a pass in seconds at a fixed reference speed.

    The CPU speed of a shared host drifts by 10-20% over seconds, equally
    for all interpreted code.  So the clock samples a fixed reference step
    (dict inserts and a sum) at call boundaries, at most every 50 ms of
    work, and scales each stretch of work between two samples by
    REFERENCE_STEP_S over the mean of those samples.  The samples
    themselves are not counted as work."""

    def __init__(self) -> None:
        self.running = False
        self.raw = self.scaled = 0.0

    def sample(self) -> float:
        """Median of five timed reference steps."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            _reference_step()
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[2]

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._reference = self.sample()
        self._since = time.perf_counter()
        self.running = True

    def tick(self, force: bool = False) -> None:
        if not self.running:
            return
        stretch = time.perf_counter() - self._since
        if stretch < REFERENCE_INTERVAL_S and not force:
            return
        reference = self.sample()
        self.raw += stretch
        self.scaled += stretch * 2 * REFERENCE_STEP_S / (self._reference + reference)
        self._reference = reference
        self._since = time.perf_counter()

    def stop(self) -> float:
        """End the pass; returns reference seconds per second of work."""
        self.tick(force=True)
        self.running = False
        return self.scaled / self.raw


class Calls:
    """Counts every call into ratindex, times it (into ``durations`` while
    that is a list, and as a span when tracing) and lets the pass clock
    take its reference samples between calls.

    ``failed`` counts the calls that raised ``RecursionError``; only the
    known-failing operations catch it (see ``workloads.run_failing``)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.clock = PassClock()
        self.durations: list[float] | None = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, name: str, fn: Callable, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if not self.tracer.enabled:
                return fn(*args, **kwargs)
            with self.tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            if self.durations is not None:
                self.durations.append(time.perf_counter() - start)
            self.clock.tick()
