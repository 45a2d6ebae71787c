"""A token bucket.

The classic pacing primitive: tokens refill continuously at
``rate_per_second`` up to a ``burst`` capacity, and each admitted call
spends one.  Both the clock and the sleep are parameters, so simulations
and tests drive refills manually and never wait on the wall clock.

Lock discipline: ``_advanced()`` is a *pure* computation of the refilled
state; every assignment to ``_tokens`` / ``_updated`` happens
syntactically inside ``with self._lock`` so the repo's
``unguarded-shared-write`` lint rule can verify the invariant.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import QpiadError

__all__ = ["TokenBucket"]


class TokenBucket:
    """Continuous-refill token bucket with blocking waits.

    Parameters
    ----------
    rate_per_second:
        Sustained refill rate; must be positive.
    burst:
        Bucket capacity (maximum tokens banked while idle); at least 1.
        The bucket starts full, so a cold source allows an initial burst.
    clock:
        Injectable monotonic clock.
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_second <= 0:
            raise QpiadError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        if burst < 1:
            raise QpiadError(f"burst must be at least 1, got {burst}")
        self.rate_per_second = float(rate_per_second)
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._updated = clock()

    def _advanced(self) -> "tuple[float, float]":
        """The refilled ``(tokens, now)`` pair; pure — callers assign it
        back under the lock."""
        now = self._clock()
        elapsed = now - self._updated
        tokens = self._tokens
        if elapsed > 0:
            tokens = min(float(self.burst), tokens + elapsed * self.rate_per_second)
        return tokens, now

    def acquire(self, sleep: Callable[[float], None] = time.sleep) -> float:
        """Take a token, sleeping until one refills; returns seconds waited."""
        waited = 0.0
        while True:
            with self._lock:
                tokens, now = self._advanced()
                taken = tokens >= 1.0
                self._tokens = tokens - 1.0 if taken else tokens
                self._updated = now
                if taken:
                    return waited
                deficit = (1.0 - tokens) / self.rate_per_second
            sleep(deficit)
            waited += deficit

    @property
    def available(self) -> float:
        """Currently banked tokens (after refill), for diagnostics."""
        with self._lock:
            tokens, now = self._advanced()
            self._tokens = tokens
            self._updated = now
            return tokens

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate_per_second}/s, burst={self.burst}, "
            f"available={self.available:.2f})"
        )
