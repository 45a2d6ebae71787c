"""Circuit-breaker state machine over a failing source."""

import pytest

from repro.errors import (
    CircuitOpenError,
    NullBindingError,
    QpiadError,
    SourceUnavailableError,
)
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

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SwitchableSource(SourceDecorator):
    """A source whose health the test flips on and off."""

    def __init__(self):
        relation = Relation(Schema.of("make"), [("Honda",)])
        super().__init__(AutonomousSource("cars", relation))
        self.down = False

    def execute(self, query):
        if self.down:
            raise SourceUnavailableError("connection reset")
        return self.inner.execute(query)


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def flaky() -> SwitchableSource:
    return SwitchableSource()


def make_breaker(flaky, clock, threshold=3, recovery=30.0) -> CircuitBreakerSource:
    return CircuitBreakerSource(
        flaky, failure_threshold=threshold, recovery_seconds=recovery, clock=clock
    )


def fail_times(breaker, count):
    for __ in range(count):
        with pytest.raises(SourceUnavailableError):
            breaker.execute(QUERY)


class TestStateMachine:
    def test_opens_after_threshold_consecutive_failures(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=3)
        flaky.down = True
        fail_times(breaker, 3)
        assert breaker.state == BreakerState.OPEN
        assert breaker.statistics.opens == 1

    def test_open_circuit_fails_fast_without_contacting_the_source(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=2)
        flaky.down = True
        fail_times(breaker, 2)
        flaky.down = False  # source recovered, but the window has not elapsed
        with pytest.raises(CircuitOpenError):
            breaker.execute(QUERY)
        assert breaker.statistics.fast_failures == 1
        assert flaky.inner.statistics.queries_answered == 0

    def test_half_open_trial_success_closes(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=2, recovery=30.0)
        flaky.down = True
        fail_times(breaker, 2)
        flaky.down = False
        clock.advance(31.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert len(breaker.execute(QUERY)) == 1  # trial call goes through
        assert breaker.state == BreakerState.CLOSED
        assert breaker.statistics.recoveries == 1

    def test_half_open_trial_failure_reopens(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=2, recovery=30.0)
        flaky.down = True
        fail_times(breaker, 2)
        clock.advance(31.0)
        fail_times(breaker, 1)  # the trial call fails
        assert breaker.state == BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.execute(QUERY)
        # A fresh recovery window started at the failed trial.
        clock.advance(31.0)
        flaky.down = False
        assert len(breaker.execute(QUERY)) == 1

    def test_success_resets_the_failure_count(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=3)
        flaky.down = True
        fail_times(breaker, 2)
        flaky.down = False
        breaker.execute(QUERY)
        flaky.down = True
        fail_times(breaker, 2)  # 2 < 3: circuit still closed
        assert breaker.state == BreakerState.CLOSED


class TestSelectivity:
    def test_capability_errors_do_not_trip_the_breaker(self, flaky, clock):
        breaker = make_breaker(flaky, clock, threshold=1)
        with pytest.raises(NullBindingError):
            breaker.execute_null_binding(QUERY)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.statistics.failures == 0

    def test_circuit_open_error_is_transiently_retryable(self):
        # Upstream degradation treats an open circuit as any other outage.
        assert issubclass(CircuitOpenError, SourceUnavailableError)


class TestValidationAndSurface:
    def test_invalid_parameters(self, flaky, clock):
        with pytest.raises(QpiadError):
            make_breaker(flaky, clock, threshold=0)
        with pytest.raises(QpiadError):
            make_breaker(flaky, clock, recovery=-1)
