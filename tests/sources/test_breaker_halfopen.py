"""CircuitBreakerSource under concurrent callers: one half-open probe only."""

import threading

import pytest

from repro.errors import CircuitOpenError, SourceUnavailableError
from repro.query import SelectionQuery
from repro.relational import Relation, Schema
from repro.sources import (
    AutonomousSource,
    BreakerState,
    CircuitBreakerSource,
    SourceDecorator,
)

QUERY = SelectionQuery.equals("make", "Honda")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class GatedSource(SourceDecorator):
    """A source the test can hold mid-call and fail on demand."""

    def __init__(self):
        relation = Relation(Schema.of("make"), [("Honda",)])
        super().__init__(AutonomousSource("cars", relation))
        self.down = False
        self.hold = None  # when set, execute blocks on this event
        self.entered = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, query):
        with self._lock:
            self.calls += 1
        self.entered.set()
        if self.hold is not None:
            self.hold.wait(5.0)
        if self.down:
            raise SourceUnavailableError("down")
        return self.inner.execute(query)


def tripped_breaker(clock, threshold=2, recovery=30.0):
    source = GatedSource()
    breaker = CircuitBreakerSource(
        source, failure_threshold=threshold, recovery_seconds=recovery, clock=clock
    )
    source.down = True
    for _ in range(threshold):
        with pytest.raises(SourceUnavailableError):
            breaker.execute(QUERY)
    assert breaker.state == BreakerState.OPEN
    source.down = False
    return source, breaker


class TestSerialHalfOpen:
    def test_probe_success_closes_the_circuit(self):
        clock = FakeClock()
        source, breaker = tripped_breaker(clock)
        clock.advance(30.0)
        assert len(breaker.execute(QUERY)) == 1
        assert breaker.state == BreakerState.CLOSED
        assert breaker.statistics.recoveries == 1

    def test_probe_failure_reopens_for_another_window(self):
        clock = FakeClock()
        source, breaker = tripped_breaker(clock)
        clock.advance(30.0)
        source.down = True
        with pytest.raises(SourceUnavailableError):
            breaker.execute(QUERY)
        assert breaker.state == BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.execute(QUERY)


class TestConcurrentHalfOpen:
    @pytest.mark.parametrize("width", (2, 4, 8))
    def test_only_one_probe_is_admitted(self, width):
        clock = FakeClock()
        source, breaker = tripped_breaker(clock)
        clock.advance(30.0)
        source.hold = threading.Event()
        calls_before = source.calls

        outcomes = []
        lock = threading.Lock()

        def caller():
            try:
                result = breaker.execute(QUERY)
                with lock:
                    outcomes.append(("ok", len(result)))
            except CircuitOpenError:
                with lock:
                    outcomes.append(("fast-fail", None))

        probe = threading.Thread(target=caller)
        probe.start()
        assert source.entered.wait(5.0)  # the probe is now in flight

        losers = [threading.Thread(target=caller) for _ in range(width - 1)]
        for thread in losers:
            thread.start()
        for thread in losers:
            thread.join(timeout=5)
        # Losers failed fast while the probe was still on the wire.
        assert outcomes == [("fast-fail", None)] * (width - 1)

        source.hold.set()
        probe.join(timeout=5)
        assert ("ok", 1) in outcomes
        assert source.calls == calls_before + 1  # exactly one probe call
        assert breaker.state == BreakerState.CLOSED
        assert breaker.statistics.fast_failures >= width - 1

    @pytest.mark.parametrize("width", (2, 4, 8))
    def test_failed_probe_reopens_and_losers_stay_rejected(self, width):
        clock = FakeClock()
        source, breaker = tripped_breaker(clock)
        clock.advance(30.0)
        source.down = True
        source.hold = threading.Event()

        errors = []
        lock = threading.Lock()

        def probe_caller():
            try:
                breaker.execute(QUERY)
            except (SourceUnavailableError, CircuitOpenError) as exc:
                with lock:
                    errors.append(type(exc).__name__)

        probe = threading.Thread(target=probe_caller)
        probe.start()
        assert source.entered.wait(5.0)
        losers = [threading.Thread(target=probe_caller) for _ in range(width - 1)]
        for thread in losers:
            thread.start()
        for thread in losers:
            thread.join(timeout=5)
        source.hold.set()
        probe.join(timeout=5)

        assert errors.count("CircuitOpenError") == width - 1
        assert errors.count("SourceUnavailableError") == 1
        assert breaker.state == BreakerState.OPEN  # the failed probe re-opened

    def test_circuit_reusable_after_concurrent_recovery(self):
        clock = FakeClock()
        source, breaker = tripped_breaker(clock)
        clock.advance(30.0)
        assert len(breaker.execute(QUERY)) == 1
        # Fully closed again: concurrent traffic passes freely.
        results = []
        lock = threading.Lock()

        def caller():
            result = breaker.execute(QUERY)
            with lock:
                results.append(len(result))

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert results == [1, 1, 1, 1]
