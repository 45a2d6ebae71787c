"""The shared source-admission scheduler.

Every mediated retrieval in the process can funnel its source calls
through one :class:`SourceScheduler`, which owns the one concern no
single mediator can see: **admission control**.  One
:class:`SourcePolicy` applies to every source: a bounded admission
queue, an optional concurrency cap, and an optional token-bucket rate
limit, each kept per source.  A call arriving at a full queue is shed
immediately with :class:`~repro.errors.AdmissionRejectedError` instead
of deepening the backlog.

An admitted call runs its thunk exactly once, on the caller's thread,
so every call a mediator bills either reaches the source once or is
shed before it: ``queries_issued`` equals the source's own call log
plus the calls shed.  See ``docs/robustness.md`` for the layering
diagram.

Lock discipline follows the repo's ``unguarded-shared-write`` lint rule:
every mutation of shared state sits syntactically inside a
``with self._lock`` block; helpers that compute next states are pure.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import AdmissionRejectedError, QpiadError
from repro.resilience.bucket import TokenBucket
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "SourcePolicy",
    "SourceScheduler",
    "install_scheduler",
    "current_scheduler",
    "scheduler_scope",
]


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourcePolicy:
    """The admission rules a scheduler applies to each source.

    Parameters
    ----------
    rate_per_second:
        Token-bucket refill rate; ``None`` disables rate limiting.
    burst:
        Token-bucket capacity (calls allowed back-to-back from cold).
    max_concurrent:
        Cap on calls in flight against the source; ``None`` = unlimited.
    max_queue:
        Bound on callers in admission, the one taking a free slot
        included; one more is shed with ``AdmissionRejectedError``, so
        the bound is at least 1.  ``None`` = unbounded queue (admission
        never sheds).
    """

    rate_per_second: "float | None" = None
    burst: int = 4
    max_concurrent: "int | None" = None
    max_queue: "int | None" = 64

    def __post_init__(self) -> None:
        if self.rate_per_second is not None and self.rate_per_second <= 0:
            raise QpiadError(
                f"rate_per_second must be positive, got {self.rate_per_second}"
            )
        if self.burst < 1:
            raise QpiadError(f"burst must be at least 1, got {self.burst}")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise QpiadError(
                f"max_concurrent must be at least 1, got {self.max_concurrent}"
            )
        if self.max_queue is not None and self.max_queue < 1:
            raise QpiadError(
                f"max_queue must be at least 1, got {self.max_queue}"
            )


def source_name(source: Any) -> str:
    """The logical identity admission state is keyed by.

    Two wrappers reporting the same ``name`` are treated as the same
    backend: they share one queue, one set of slots and one rate budget.
    """
    name = getattr(source, "name", None)
    return name if isinstance(name, str) and name else type(source).__name__


# ---------------------------------------------------------------------------
# per-source runtime state
# ---------------------------------------------------------------------------


class _SourceState:
    """Queue/slot/bucket state of one source, shared across callers.

    ``self._lock`` is a :class:`threading.Condition`: the same object
    guards the counters and wakes slot waiters, so a release can never
    race a wait on a different lock.
    """

    def __init__(self, name: str, policy: SourcePolicy, clock: Callable[[], float]):
        self.name = name
        self.policy = policy
        self._lock = threading.Condition()
        self.inflight = 0
        self.queued = 0
        self.bucket: "TokenBucket | None" = (
            TokenBucket(policy.rate_per_second, policy.burst, clock)
            if policy.rate_per_second is not None
            else None
        )

    # -- bounded wait queue -------------------------------------------------

    def enter_queue(self) -> None:
        """Count this caller as waiting; shed when the queue is full."""
        with self._lock:
            limit = self.policy.max_queue
            if limit is not None and self.queued >= limit:
                raise AdmissionRejectedError(
                    f"source {self.name!r} admission queue is full "
                    f"({self.queued}/{limit} waiting); call shed"
                )
            self.queued += 1

    def exit_queue(self) -> None:
        with self._lock:
            self.queued -= 1

    # -- concurrency slots --------------------------------------------------

    def acquire_slot(self) -> None:
        """Take an in-flight slot, waiting until one is free."""
        cap = self.policy.max_concurrent
        with self._lock:
            while cap is not None and self.inflight >= cap:
                self._lock.wait()
            self.inflight += 1

    def release_slot(self) -> None:
        with self._lock:
            self.inflight -= 1
            self._lock.notify()


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


class SourceScheduler:
    """Process-wide admission control for source calls.

    One instance is meant to be shared by every engine in the process
    (see :func:`install_scheduler`).  It applies *policy* (by default
    ``SourcePolicy()``) to every source; the per-source state the policy
    governs is created lazily on a source's first call and keyed by its
    name (see :func:`source_name`).  The scheduler keeps its own always-on
    :class:`MetricsRegistry` (``scheduler.*`` counters and per-source
    latency histograms) and mirrors every emission into an attached
    :class:`~repro.telemetry.Telemetry` when one is given.
    """

    def __init__(
        self,
        policy: "SourcePolicy | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: Any = None,
    ):
        self.policy = policy if policy is not None else SourcePolicy()
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._sleep = sleep
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._states: "dict[str, _SourceState]" = {}

    # -- telemetry ----------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self.metrics.count(name, amount)
        if self._telemetry is not None:
            self._telemetry.count(name, amount)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        if self._telemetry is not None:
            self._telemetry.observe(name, value)

    def _latency_metric(self, name: str) -> str:
        return f"scheduler.source.{name}.latency_seconds"

    # -- state access -------------------------------------------------------

    def state_for(self, source: Any) -> _SourceState:
        name = source_name(source)
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = _SourceState(
                    name, self.policy, self._clock
                )
            return state

    def shutdown(self) -> None:
        """Release the scheduler's resources; a no-op.

        Every admitted call runs on its caller's thread, so the scheduler
        holds no threads of its own.  The method stays for callers that
        release a scheduler once they are done with it.
        """

    # -- the one entry point ------------------------------------------------

    def call(
        self,
        source: Any,
        query: Any,
        operation: str,
        thunk: Callable[[], Any],
    ) -> Any:
        """Route one source call through admission, then run *thunk* once.

        *thunk* is the fully wrapped call; the scheduler decides when it
        runs, and an admitted call runs it exactly once, on the caller's
        thread.  Admission is keyed by *source* alone: *query* and
        *operation* describe the call to whoever wraps this method (a
        tracer, say) and are not read here.
        """
        self._count("scheduler.calls")
        state = self.state_for(source)
        arrived = self._clock()
        try:
            state.enter_queue()
        except AdmissionRejectedError:
            self._count("scheduler.rejected_queue_full")
            raise
        slot_held = False
        try:
            state.acquire_slot()
            slot_held = True
            if state.bucket is not None:
                state.bucket.acquire(sleep=self._sleep)
        except BaseException:
            if slot_held:
                state.release_slot()
            raise
        finally:
            state.exit_queue()

        self._count("scheduler.admitted")
        self._observe("scheduler.queue_wait_seconds", self._clock() - arrived)

        started = self._clock()
        try:
            value = thunk()
        finally:
            state.release_slot()
        self._observe(self._latency_metric(state.name), self._clock() - started)
        return value


# ---------------------------------------------------------------------------
# process-wide default
# ---------------------------------------------------------------------------

_INSTALL_LOCK = threading.Lock()
_installed: "SourceScheduler | None" = None


def install_scheduler(scheduler: "SourceScheduler | None") -> "SourceScheduler | None":
    """Set the process-wide scheduler; returns the previous one.

    Engines built without an explicit ``scheduler=`` fall back to this,
    so one ``install_scheduler(SourceScheduler(...))`` at startup routes
    every mediator in the process through shared admission control.
    ``None`` uninstalls.
    """
    global _installed
    with _INSTALL_LOCK:
        previous = _installed
        _installed = scheduler
    return previous


def current_scheduler() -> "SourceScheduler | None":
    return _installed


@contextmanager
def scheduler_scope(scheduler: "SourceScheduler | None") -> Iterator[None]:
    """Temporarily install *scheduler* (tests, CLI invocations)."""
    previous = install_scheduler(scheduler)
    try:
        yield
    finally:
        install_scheduler(previous)
