"""Deadline propagation: one wall-clock budget, visible to every layer.

The engine has always enforced ``deadline_seconds`` *between* source
calls — a plan stops issuing once the budget is spent.  What it could not
do is reach the layers below a call already in flight: a
:class:`~repro.sources.retrying.RetryingSource` would happily sleep a
30-second backoff inside a retrieval whose caller only had two seconds
left, and a queued admission wait had no idea any budget existed.

:class:`Deadline` is the value that flows down: an absolute expiry on an
injectable monotonic clock.  It travels two ways:

* explicitly — the :class:`~repro.resilience.SourceScheduler` receives it
  per call and caps every queue wait with it;
* ambiently — :func:`deadline_scope` publishes it in a ``threading.local``
  for the duration of a source call, so deep layers that were never
  taught a ``deadline=`` parameter (the retry backoff sleep) can consult
  :func:`remaining_deadline` without any signature change.  The scope is
  set by the engine *on the executor thread that runs the call*, so
  thread-pool execution propagates correctly by construction.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "remaining_deadline",
]


class Deadline:
    """An absolute expiry on a monotonic clock.

    Parameters
    ----------
    expires_at:
        Absolute instant (in *clock* units) after which the budget is
        spent.
    clock:
        The monotonic clock the expiry was measured on; every layer that
        compares against this deadline must read the same clock, which is
        why the deadline carries it.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic):
        self.expires_at = expires_at
        self.clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """The deadline *seconds* from now on *clock*."""
        return cls(clock() + seconds, clock)

    def remaining(self) -> float:
        """Seconds left; zero or negative once the deadline has passed."""
        return self.expires_at - self.clock()

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


class _DeadlineLocal(threading.local):
    current: "Deadline | None" = None


_ACTIVE = _DeadlineLocal()


def current_deadline() -> "Deadline | None":
    """The deadline governing the current thread's call, if any."""
    return _ACTIVE.current


def remaining_deadline() -> "float | None":
    """Seconds left on the ambient deadline; ``None`` when unbounded."""
    deadline = _ACTIVE.current
    return None if deadline is None else deadline.remaining()


@contextmanager
def deadline_scope(deadline: "Deadline | None") -> Iterator["Deadline | None"]:
    """Publish *deadline* as the ambient deadline for the ``with`` body.

    ``None`` is accepted and simply leaves the ambient state untouched,
    so call sites need no conditional.  Scopes nest: an inner scope with
    a tighter deadline shadows the outer one and restores it on exit.
    """
    if deadline is None:
        yield None
        return
    previous = _ACTIVE.current
    _ACTIVE.current = deadline
    try:
        yield deadline
    finally:
        _ACTIVE.current = previous
