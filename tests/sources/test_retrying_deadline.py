"""RetryingSource deadline-awareness: backoffs never sleep past the budget."""

import pytest

from repro.errors import DeadlineExceededError, SourceUnavailableError
from repro.query import SelectionQuery
from repro.relational import Relation, Schema
from repro.sources import AutonomousSource, RetryingSource, SourceDecorator
from repro.resilience import Deadline, deadline_scope

QUERY = SelectionQuery.equals("make", "Honda")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FailingThenHealthy(SourceDecorator):
    """Fails the first *failures* calls, then answers."""

    def __init__(self, failures):
        relation = Relation(Schema.of("make"), [("Honda",)])
        super().__init__(AutonomousSource("cars", relation))
        self.remaining_failures = failures
        self.calls = 0

    def execute(self, query):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise SourceUnavailableError("flaky")
        return self.inner.execute(query)


class TestDeadlineAwareBackoff:
    def test_raises_instead_of_sleeping_past_the_deadline(self):
        slept = []
        source = RetryingSource(
            FailingThenHealthy(1),
            max_attempts=3,
            backoff_seconds=10.0,
            sleep=slept.append,
        )
        clock = FakeClock()
        with deadline_scope(Deadline.after(1.0, clock)):
            with pytest.raises(DeadlineExceededError) as caught:
                source.execute(QUERY)
        assert slept == []  # it never slept a doomed backoff
        assert isinstance(caught.value.__cause__, SourceUnavailableError)
        assert source.statistics.gave_up == 1

    def test_retries_normally_when_the_budget_allows_the_sleep(self):
        slept = []
        source = RetryingSource(
            FailingThenHealthy(1),
            max_attempts=3,
            backoff_seconds=0.5,
            sleep=slept.append,
        )
        clock = FakeClock()
        with deadline_scope(Deadline.after(100.0, clock)):
            result = source.execute(QUERY)
        assert len(result) == 1
        assert slept == [0.5]
        assert source.statistics.retries == 1

    def test_no_ambient_deadline_means_unbounded_backoff(self):
        slept = []
        source = RetryingSource(
            FailingThenHealthy(1),
            max_attempts=3,
            backoff_seconds=60.0,
            sleep=slept.append,
        )
        result = source.execute(QUERY)
        assert len(result) == 1
        assert slept == [60.0]

    def test_zero_backoff_retries_need_no_budget(self):
        # With no sleep there is nothing to cap: an expired deadline does
        # not stop an instant retry (the engine's between-call check does).
        source = RetryingSource(FailingThenHealthy(1), max_attempts=3)
        clock = FakeClock()
        clock.now = 10.0
        with deadline_scope(Deadline(5.0, clock)):
            result = source.execute(QUERY)
        assert len(result) == 1

    def test_expired_budget_preempts_even_short_backoffs(self):
        source = RetryingSource(
            FailingThenHealthy(1),
            max_attempts=3,
            backoff_seconds=0.01,
            sleep=lambda s: pytest.fail("slept past an expired deadline"),
        )
        clock = FakeClock()
        clock.now = 10.0
        with deadline_scope(Deadline(5.0, clock)):  # already expired
            with pytest.raises(DeadlineExceededError):
                source.execute(QUERY)
