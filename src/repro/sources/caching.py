"""Mediator-side result caching for autonomous sources.

Rewritten queries repeat across user queries (the same ``Model = Z4`` probe
serves every convertible-hunting query), and autonomous sources charge every
call against their budget.  :class:`CachingSource` memoizes query results at
the mediator so repeats cost nothing — the standard wrapper a production
mediator puts in front of a rate-limited web source.

The wrapper is transparent: a
:class:`~repro.sources.surface.SourceDecorator` whose only override is
:meth:`~CachingSource.execute`, because the cache key is the query.  It
enforces nothing itself; cache *misses* still hit the underlying source
with all its restrictions.

Two robustness guarantees the test suite pins:

* **Failures never poison the cache.**  A call that raises inserts
  nothing — the next identical query goes back to the source instead of
  replaying a cached exception or an empty placeholder.
* **Thread safety.**  Cache and statistics mutations are locked, so the
  wrapper can sit under the concurrent plan executor; the inner call
  itself runs outside the lock (it may wait on a remote source) so a
  slow miss never blocks concurrent hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import QpiadError
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.sources.surface import Source, SourceDecorator
from repro.telemetry import Telemetry

__all__ = ["CacheStatistics", "CachingSource"]


@dataclass
class CacheStatistics:
    """Hit/miss accounting of one caching wrapper."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachingSource(SourceDecorator):
    """An LRU result cache in front of an autonomous source.

    Parameters
    ----------
    inner:
        The wrapped source; only its certain-answer interface is cached
        (NULL-binding calls are baseline-only counterfactuals and stay
        uncached by design).
    capacity:
        Maximum number of distinct queries kept (least-recently-used
        eviction).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook mirroring
        :attr:`statistics` into the ``cache.*`` counters (hits, misses,
        evictions) of a shared registry; ``None`` emits nothing.
    """

    def __init__(
        self,
        inner: Source,
        capacity: int = 256,
        telemetry: Telemetry | None = None,
    ):
        if capacity < 1:
            raise QpiadError(f"cache capacity must be positive, got {capacity}")
        super().__init__(inner)
        self.capacity = capacity
        self.statistics = CacheStatistics()
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._cache: "OrderedDict[SelectionQuery, Relation]" = OrderedDict()

    def execute(self, query: SelectionQuery) -> Relation:
        """Answer from the cache when possible; a miss goes through :meth:`_call`.

        A raising inner call inserts nothing (no negative caching, no
        poisoned entries) and counts as neither hit nor miss — the
        failure is the mediator's to absorb or raise, not the cache's.
        """
        with self._lock:
            cached = self._cache.get(query)
            if cached is not None:
                self._cache.move_to_end(query)
                self.statistics.hits += 1
        if cached is not None:
            if self._telemetry is not None:
                self._telemetry.count("cache.hits")
            return cached
        result = self._call("execute", lambda: self.inner.execute(query))
        evicted = False
        with self._lock:
            self.statistics.misses += 1
            self._cache[query] = result
            if len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
                self.statistics.evictions += 1
                evicted = True
        if self._telemetry is not None:
            self._telemetry.count("cache.misses")
            if evicted:
                self._telemetry.count("cache.evictions")
        return result

    def reset_statistics(self) -> None:
        super().reset_statistics()
        with self._lock:
            self.statistics = CacheStatistics()

    def __repr__(self) -> str:
        return (
            f"CachingSource({self.inner!r}, {len(self._cache)}/{self.capacity} "
            f"entries, hit rate {self.statistics.hit_rate:.2f})"
        )
