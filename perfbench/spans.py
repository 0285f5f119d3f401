"""In-memory spans and counters for the traced run, and the statistics the
benchmark reports.

A span is (name, start, end). The replay makes its calls one at a time in one
thread, so a span's children are the spans that lie inside its interval. The
spans are written out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Records spans around calls into the package, in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        record = {"name": name}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced replay."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """The highest percentile with ten samples above it, once there are 100
    samples (p90 or higher); the maximum before that."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 100 else ordered[-1]
