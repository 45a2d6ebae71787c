"""CachingSource failure audit: raising calls never poison the cache."""

import threading

import pytest

from repro.errors import SourceUnavailableError
from repro.query import SelectionQuery
from repro.relational import Relation, Schema
from repro.sources import AutonomousSource, CachingSource, SourceDecorator

QUERY = SelectionQuery.equals("make", "Honda")


class FlakyOnce(SourceDecorator):
    """Raises on the first call, answers afterwards, counts everything."""

    def __init__(self, error=None):
        relation = Relation(Schema.of("make"), [("Honda",)])
        super().__init__(AutonomousSource("cars", relation))
        self.error = error or SourceUnavailableError("connection reset")
        self.calls = 0
        self.fail_next = True

    def execute(self, query):
        self.calls += 1
        if self.fail_next:
            self.fail_next = False
            raise self.error
        return self.inner.execute(query)


class TestFailuresNeverPoison:
    def test_a_raising_call_inserts_nothing(self):
        flaky = FlakyOnce()
        cache = CachingSource(flaky)
        with pytest.raises(SourceUnavailableError):
            cache.execute(QUERY)
        # The retry goes back to the source — not to a poisoned entry.
        result = cache.execute(QUERY)
        assert len(result) == 1
        assert flaky.calls == 2

    def test_a_raising_call_counts_neither_hit_nor_miss(self):
        flaky = FlakyOnce()
        cache = CachingSource(flaky)
        with pytest.raises(SourceUnavailableError):
            cache.execute(QUERY)
        assert cache.statistics.hits == 0
        assert cache.statistics.misses == 0

    def test_success_after_failure_is_cached_normally(self):
        flaky = FlakyOnce()
        cache = CachingSource(flaky)
        with pytest.raises(SourceUnavailableError):
            cache.execute(QUERY)
        cache.execute(QUERY)
        cache.execute(QUERY)
        assert flaky.calls == 2  # the third call was a hit
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1


class TestConcurrentSafety:
    def test_concurrent_callers_see_consistent_results(self):
        relation = Relation(Schema.of("make"), [("Honda",)])
        cache = CachingSource(AutonomousSource("cars", relation))
        results = []
        errors = []
        lock = threading.Lock()

        def worker(index):
            query = SelectionQuery.equals("make", "Honda")
            try:
                for _ in range(50):
                    result = cache.execute(query)
                    with lock:
                        results.append(len(result))
            except Exception as exc:  # pragma: no cover - diagnostic
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert set(results) == {1}
        # Accounting stays exact under contention.
        assert cache.statistics.hits + cache.statistics.misses == 400

    def test_concurrent_failures_leave_the_cache_empty(self):
        class AlwaysDown(FlakyOnce):
            def execute(self, query):
                self.calls += 1
                raise SourceUnavailableError("down")

        cache = CachingSource(AlwaysDown())
        outcomes = []
        lock = threading.Lock()

        def worker():
            try:
                cache.execute(QUERY)
            except SourceUnavailableError:
                with lock:
                    outcomes.append("raised")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == ["raised"] * 8  # every caller saw the failure
        assert cache.statistics.hits == 0
        assert cache.statistics.misses == 0
