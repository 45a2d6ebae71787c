"""Retrying transient source failures.

Web databases fail transiently — timeouts, overloaded backends, dropped
connections.  A mediator that aborts a whole multi-query retrieval plan on
one hiccup wastes everything it already spent.  :class:`RetryingSource`
wraps any source and retries calls that raise
:class:`~repro.errors.SourceUnavailableError`, with optional backoff.

Permanent failures (capability violations, budget exhaustion) are *not*
retried: repeating a query a web form cannot express never helps, and
retrying against an exhausted budget only burns goodwill.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import QpiadError, SourceUnavailableError
from repro.sources.surface import Source, SourceDecorator
from repro.telemetry import Telemetry

__all__ = ["RetryStatistics", "RetryingSource"]


@dataclass
class RetryStatistics:
    """How much flakiness the wrapper absorbed."""

    attempts: int = 0
    retries: int = 0
    gave_up: int = 0


class RetryingSource(SourceDecorator):
    """Retry transient failures of a wrapped source.

    Parameters
    ----------
    inner:
        Any :class:`~repro.sources.surface.Source` (an
        :class:`~repro.sources.AutonomousSource`, a
        :class:`~repro.sources.caching.CachingSource`, ...).
    max_attempts:
        Total tries per call (1 = no retrying).
    backoff_seconds:
        Sleep between attempts, doubled each retry; 0 disables sleeping
        (the default keeps tests and simulations instant).
    max_backoff_seconds:
        Ceiling on any single sleep; ``None`` leaves the doubling uncapped.
        A mediator retrying ten rewritten queries must not escalate into
        minute-long stalls on a source that is merely slow to recover.
    jitter_seed:
        When set, each sleep is scattered over ``[delay/2, delay]`` ("equal
        jitter") by a dedicated seeded generator, so a fleet of mediators
        does not re-hammer a recovering source in lockstep — while the same
        seed still replays the same schedule, keeping simulations
        deterministic.  ``None`` sleeps the exact delay.
    sleep:
        Injectable sleep function (for tests).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook mirroring
        :attr:`statistics` into the ``retry.*`` counters (attempts,
        retries, gave_up); ``None`` emits nothing.
    """

    def __init__(
        self,
        inner: Source,
        max_attempts: int = 3,
        backoff_seconds: float = 0.0,
        max_backoff_seconds: float | None = None,
        jitter_seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: Telemetry | None = None,
    ):
        if max_attempts < 1:
            raise QpiadError(f"max_attempts must be at least 1, got {max_attempts}")
        if backoff_seconds < 0:
            raise QpiadError("backoff_seconds must be non-negative")
        if max_backoff_seconds is not None and max_backoff_seconds < 0:
            raise QpiadError("max_backoff_seconds must be non-negative")
        super().__init__(inner)
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self._jitter_rng = None if jitter_seed is None else random.Random(jitter_seed)
        self._sleep = sleep
        self._telemetry = telemetry
        self.statistics = RetryStatistics()

    # -- retry core --------------------------------------------------------

    def _capped(self, delay: float) -> float:
        if self.max_backoff_seconds is None:
            return delay
        return min(delay, self.max_backoff_seconds)

    def _jittered(self, delay: float) -> float:
        if self._jitter_rng is None:
            return delay
        return delay / 2 + self._jitter_rng.random() * delay / 2

    def _call(self, operation: str, thunk: Callable[[], Any]) -> Any:
        delay = self._capped(self.backoff_seconds)
        for attempt in range(1, self.max_attempts + 1):
            self.statistics.attempts += 1
            if self._telemetry is not None:
                self._telemetry.count("retry.attempts")
            try:
                return thunk()
            except SourceUnavailableError:
                if attempt == self.max_attempts:
                    self.statistics.gave_up += 1
                    if self._telemetry is not None:
                        self._telemetry.count("retry.gave_up")
                    raise
                self.statistics.retries += 1
                if self._telemetry is not None:
                    self._telemetry.count("retry.retries")
                if delay:
                    self._sleep(self._jittered(delay))
                    delay = self._capped(delay * 2)
        raise AssertionError("unreachable")  # pragma: no cover

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.statistics = RetryStatistics()

    def __repr__(self) -> str:
        return (
            f"RetryingSource({self.inner!r}, max_attempts={self.max_attempts}, "
            f"absorbed {self.statistics.retries} retries)"
        )
