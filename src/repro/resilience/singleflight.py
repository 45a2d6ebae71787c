"""Single-flight deduplication of identical in-flight calls.

When several concurrent plans ask the same source the same question at
the same moment — the classic thundering herd of a popular rewritten
query — only the first caller (the **leader**) should put the call on
the wire.  Everyone else (**followers**) waits on the leader's outcome
and shares it: one source call, N consumers.

The contract on failure is exact: a leader that raises propagates the
*same* exception to every follower, each exactly once, and the flight is
always cleared — the next caller after completion starts a fresh flight
(single-flight dedups *in-flight* calls; it is not a cache).

The API is split into :meth:`lead_or_join` / :meth:`complete` /
:meth:`wait` rather than one ``do(key, fn)`` so the scheduler can keep
followers inside its bounded-admission-queue accounting while they wait.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

__all__ = ["Flight", "SingleFlight"]


class Flight:
    """One in-flight call: its completion event and eventual outcome."""

    __slots__ = ("event", "value", "error", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: "BaseException | None" = None
        self.followers = 0


class SingleFlight:
    """Registry of in-flight calls keyed by content fingerprint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: "dict[Hashable, Flight]" = {}

    def lead_or_join(self, key: Hashable) -> "tuple[Flight, bool]":
        """The flight for *key* plus whether this caller leads it.

        The leader **must** later call :meth:`complete` (typically in a
        ``finally``) or every follower waits forever.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = Flight()
                self._flights[key] = flight
                return flight, True
            flight.followers += 1
            return flight, False

    def complete(
        self,
        key: Hashable,
        flight: Flight,
        value: Any = None,
        error: "BaseException | None" = None,
    ) -> int:
        """Publish the leader's outcome and release the flight.

        Returns how many followers shared it.  The flight is removed
        *before* the event fires, so a caller arriving afterwards starts
        a fresh flight instead of reading a stale result.
        """
        flight.value = value
        flight.error = error
        with self._lock:
            self._flights.pop(key, None)
            followers = flight.followers
        flight.event.set()
        return followers

    def wait(self, flight: Flight) -> Any:
        """A follower's side: block for the outcome and share it.

        Raises the leader's exception verbatim when the call failed.
        """
        flight.event.wait()
        if flight.error is not None:
            raise flight.error
        return flight.value

    def in_flight(self) -> int:
        """How many distinct calls are currently in flight."""
        with self._lock:
            return len(self._flights)
