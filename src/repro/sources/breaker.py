"""Circuit breaking for repeatedly failing autonomous sources.

Retrying (:mod:`repro.sources.retrying`) absorbs *occasional* hiccups; when
a source is properly down, retrying every rewritten query multiplies the
outage into minutes of wasted timeouts and burns the goodwill of a backend
already struggling.  :class:`CircuitBreakerSource` implements the standard
three-state breaker:

* **closed** — calls pass through; consecutive transient failures are
  counted, and reaching ``failure_threshold`` opens the circuit;
* **open** — calls fail fast with :class:`~repro.errors.CircuitOpenError`
  (no source contact) until ``recovery_seconds`` elapse;
* **half-open** — exactly one trial call (the *probe*) is let through:
  success closes the circuit, failure re-opens it for another recovery
  window.  Concurrent callers arriving while the probe is in flight fail
  fast — a recovering backend gets one feeler, not a stampede of every
  caller that was queued up behind the outage.

Only :class:`~repro.errors.SourceUnavailableError` trips the breaker.
Capability errors (unsupported attributes, NULL binding, exhausted budgets)
say nothing about source *health* — they pass through without touching the
failure count.  Time is read from an injectable clock so tests and
simulations never sleep.  All state transitions happen under a lock, so
the breaker is safe under the concurrent plan executor.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import CircuitOpenError, QpiadError, SourceUnavailableError
from repro.sources.surface import Source, SourceDecorator
from repro.telemetry import Telemetry

__all__ = ["BreakerState", "BreakerStatistics", "CircuitBreakerSource"]


class BreakerState:
    """String constants naming the breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class BreakerStatistics:
    """How often the breaker intervened."""

    successes: int = 0
    failures: int = 0
    fast_failures: int = 0  # calls rejected while open, source never contacted
    opens: int = 0
    recoveries: int = 0  # half-open trials that closed the circuit again


class CircuitBreakerSource(SourceDecorator):
    """Fail fast against a source that keeps failing.

    Parameters
    ----------
    inner:
        Any :class:`~repro.sources.surface.Source`; stack this *outside* a
        :class:`~repro.sources.retrying.RetryingSource` wrapping it, or
        inside one to let the retry loop span recovery windows — see
        ``docs/robustness.md`` for the trade-off.
    failure_threshold:
        Consecutive transient failures that open the circuit.
    recovery_seconds:
        How long an open circuit rejects calls before a half-open trial.
    clock:
        Injectable monotonic clock (for tests).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook; state changes
        become ``breaker.transitions`` plus ``breaker.opens`` /
        ``breaker.recoveries``, and every rejected call counts as
        ``breaker.fast_failures``.  ``None`` emits nothing.
    """

    def __init__(
        self,
        inner: Source,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Telemetry | None = None,
    ):
        if failure_threshold < 1:
            raise QpiadError(
                f"failure_threshold must be at least 1, got {failure_threshold}"
            )
        if recovery_seconds < 0:
            raise QpiadError("recovery_seconds must be non-negative")
        super().__init__(inner)
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self.statistics = BreakerStatistics()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    # -- breaker core ------------------------------------------------------

    # Decisions _admit can reach about one call.
    _PASS = "pass"
    _REJECT_OPEN = "reject-open"
    _REJECT_PROBE = "reject-probe"

    @contextmanager
    def _locked_after_recovery(self) -> Iterator[None]:
        """Hold the lock, first moving open → half-open if the window passed."""
        with self._lock:
            transitioned = (
                self._state == BreakerState.OPEN
                and self._clock() - self._opened_at >= self.recovery_seconds
            )
            if transitioned:
                self._state = BreakerState.HALF_OPEN
                self._probe_in_flight = False
            yield
        if transitioned and self._telemetry is not None:
            self._telemetry.count("breaker.transitions")

    @property
    def state(self) -> str:
        """The current state, advancing open → half-open when time is up."""
        with self._locked_after_recovery():
            current = self._state
        return current

    def _admit(self) -> "tuple[str, str, int, float]":
        """Decide one call's fate atomically.

        Returns ``(decision, state_at_call, consecutive_failures,
        seconds_until_half_open)`` — the latter two captured under the
        lock so rejection messages never read torn state.  In half-open,
        the first caller claims the probe slot; everyone else is
        rejected until the probe's outcome resolves the state.
        """
        with self._locked_after_recovery():
            state = self._state
            failures = self._consecutive_failures
            remaining = self.recovery_seconds - (self._clock() - self._opened_at)
            if state == BreakerState.OPEN:
                self.statistics.fast_failures += 1
                decision = self._REJECT_OPEN
            elif state == BreakerState.HALF_OPEN and self._probe_in_flight:
                self.statistics.fast_failures += 1
                decision = self._REJECT_PROBE
            elif state == BreakerState.HALF_OPEN:
                self._probe_in_flight = True
                decision = self._PASS
            else:
                decision = self._PASS
        return decision, state, failures, remaining

    def _call(self, operation: str, thunk: Callable[[], Any]) -> Any:
        decision, state, failures, remaining = self._admit()
        if decision == self._REJECT_OPEN:
            if self._telemetry is not None:
                self._telemetry.count("breaker.fast_failures")
            raise CircuitOpenError(
                f"circuit for source {self.inner.name!r} is open after "
                f"{failures} consecutive failures; retry in {remaining:.1f}s"
            )
        if decision == self._REJECT_PROBE:
            if self._telemetry is not None:
                self._telemetry.count("breaker.fast_failures")
            raise CircuitOpenError(
                f"circuit for source {self.inner.name!r} is half-open and its "
                "trial call is already in flight; failing fast"
            )
        try:
            result = thunk()
        except SourceUnavailableError:
            self._on_failure(state)
            raise
        self._on_success(state)
        return result

    def _on_failure(self, state_at_call: str) -> None:
        opened = False
        with self._lock:
            self.statistics.failures += 1
            self._consecutive_failures += 1
            if state_at_call == BreakerState.HALF_OPEN:
                self._probe_in_flight = False
            # A failed half-open probe re-opens immediately, whatever the count.
            if (
                state_at_call == BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state != BreakerState.OPEN:
                    self.statistics.opens += 1
                    opened = True
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
        if opened and self._telemetry is not None:
            self._telemetry.count("breaker.opens")
            self._telemetry.count("breaker.transitions")

    def _on_success(self, state_at_call: str) -> None:
        recovered = False
        with self._lock:
            self.statistics.successes += 1
            if state_at_call == BreakerState.HALF_OPEN:
                self.statistics.recoveries += 1
                self._probe_in_flight = False
                recovered = True
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
        if recovered and self._telemetry is not None:
            self._telemetry.count("breaker.recoveries")
            self._telemetry.count("breaker.transitions")

    def reset_statistics(self) -> None:
        super().reset_statistics()
        with self._lock:
            self.statistics = BreakerStatistics()

    def __repr__(self) -> str:
        return (
            f"CircuitBreakerSource({self.inner!r}, state={self.state!r}, "
            f"threshold={self.failure_threshold})"
        )
