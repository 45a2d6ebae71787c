"""A thread-safe LRU cache for rewrite plans.

Plans are immutable (frozen dataclasses holding tuples), so a cached plan
can be handed to any number of concurrent retrievals without copying; the
cache itself serializes its bookkeeping behind one lock, which composes
with the engine's ``max_concurrency`` executors and with several mediators
sharing one cache (a join's two sides, the correlated-source mediator's
pairings).

Keys are built by :class:`~repro.planner.planner.QueryPlanner` from
content fingerprints — canonical query, the base set's rewriting bindings
(the first raw determining-value combination of each mining-label class,
which is all rewriting reads from a base set), planner config, source
capability token, knowledge fingerprint — so entries are invalidated
*exactly* when an input changes and never otherwise: reloading knowledge
(same content) keeps hitting, re-mining or refreshing it misses, two
sources whose samples differ by one row can never cross-talk, and a base
set that differs from a cached one only outside the determining columns
hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.errors import QpiadError

__all__ = ["PlanCache"]


class PlanCache:
    """Bounded, thread-safe, least-recently-used plan store.

    Parameters
    ----------
    max_entries:
        Capacity; storing beyond it evicts the least recently used entry.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise QpiadError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: Hashable) -> Any:
        """The cached plan for *key*, or ``None`` (counted as hit/miss)."""
        with self._lock:
            try:
                plan = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return plan

    def store(self, key: Hashable, plan: Any) -> bool:
        """Insert (or refresh) *key*; returns whether an entry was evicted."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry; counters keep accumulating."""
        with self._lock:
            self._entries.clear()

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions)"
        )
