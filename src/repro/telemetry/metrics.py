"""Counters and histograms for the mediator stack.

The registry is name-addressed: the first ``count("cache.hits")`` creates
the counter, later calls find it again, so instrumentation sites never
declare metrics up front.  Histograms keep streaming summaries
(count/total/min/max/mean) — what the exporters and snapshots read —
with O(1) memory per metric whatever the traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing named total."""

    name: str
    value: float = 0

    def increment(self, amount: float = 1) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming summary of an observed distribution, in O(1) memory."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: "float | None" = None
    maximum: "float | None" = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Holds every counter and histogram of one telemetry pipeline.

    Registration and updates are locked so exact counters (the span/issued
    pins in the telemetry tests) survive a concurrent plan executor.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- access ------------------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = self._histograms[name] = Histogram(name)
            return found

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.increment(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(value)

    def value(self, name: str) -> float:
        """A counter's current value; 0 when it was never touched."""
        found = self._counters.get(name)
        return 0 if found is None else found.value

    @property
    def counters(self) -> tuple[Counter, ...]:
        return tuple(self._counters[name] for name in sorted(self._counters))

    @property
    def histograms(self) -> tuple[Histogram, ...]:
        return tuple(self._histograms[name] for name in sorted(self._histograms))

    # -- lifecycle ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready dict of every metric."""
        return {
            "counters": {
                counter.name: counter.value for counter in self.counters
            },
            "histograms": {
                histogram.name: {
                    "count": histogram.count,
                    "total": histogram.total,
                    "min": histogram.minimum,
                    "max": histogram.maximum,
                    "mean": histogram.mean,
                }
                for histogram in self.histograms
            },
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
