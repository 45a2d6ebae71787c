"""Graceful degradation of the mediator under transient source failures.

The companion chaos suite (``tests/faults/``) drives randomized seeded
schedules; these tests script *exact* failure points to pin down the
degradation semantics: which failures are absorbed, what the failure log
records, and when strict configurations propagate instead.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator, QueryFailure
from repro.errors import DeadlineExceededError, SourceUnavailableError
from repro.query import SelectionQuery
from repro.sources import SourceDecorator

QUERY = SelectionQuery.equals("body_style", "Convt")


class FailingAt(SourceDecorator):
    """Delegate to a real source, failing at scripted execute-call indices."""

    def __init__(self, inner, fail_calls: set[int]):
        super().__init__(inner)
        self.fail_calls = fail_calls
        self.calls = 0

    def execute(self, query):
        index = self.calls
        self.calls += 1
        if index in self.fail_calls:
            raise SourceUnavailableError(f"scripted failure at call {index}")
        return self.inner.execute(query)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def clean_result(env, config=None):
    return QpiadMediator(
        env.web_source(), env.knowledge, config or QpiadConfig(k=10)
    ).query(QUERY)


class TestSkipAndContinue:
    def test_one_failed_rewrite_does_not_abort_the_plan(self, cars_env):
        clean = clean_result(cars_env)
        source = FailingAt(cars_env.web_source(), fail_calls={1})  # first rewrite
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10)).query(
            QUERY
        )
        assert list(result.certain) == list(clean.certain)
        assert result.degraded
        (failure,) = result.stats.failures
        assert failure.kind == QueryFailure.SOURCE_UNAVAILABLE
        assert failure.query is not None
        # The rest of the plan still ran: only the failed rewrite is missing.
        assert result.stats.rewritten_issued == clean.stats.rewritten_issued - 1

    def test_surviving_answers_stay_confidence_ordered(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1, 3})
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10)).query(
            QUERY
        )
        confidences = [answer.confidence for answer in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_untouched_plan_is_not_degraded(self, cars_env):
        result = clean_result(cars_env)
        assert not result.degraded
        assert result.stats.failures == []


class TestFailureBudget:
    def test_failures_beyond_the_budget_propagate(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1, 2, 3})
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10, max_source_failures=2)
        )
        with pytest.raises(SourceUnavailableError):
            mediator.query(QUERY)

    def test_budget_zero_restores_strictness(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1})
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10, max_source_failures=0)
        )
        with pytest.raises(SourceUnavailableError):
            mediator.query(QUERY)

    def test_failures_within_the_budget_are_absorbed(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1, 3})
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10, max_source_failures=2)
        )
        result = mediator.query(QUERY)
        assert result.degraded
        assert len(result.stats.failures) == 2

    def test_base_query_failure_always_propagates(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={0})
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        with pytest.raises(SourceUnavailableError):
            mediator.query(QUERY)


class SlowSource(SourceDecorator):
    """Every execute call costs a fixed amount of fake time."""

    def __init__(self, inner, clock: FakeClock, seconds_per_call: float):
        super().__init__(inner)
        self.clock = clock
        self.seconds_per_call = seconds_per_call

    def execute(self, query):
        self.clock.tick(self.seconds_per_call)
        return self.inner.execute(query)


class TestDeadline:
    def test_deadline_stops_the_plan_and_flags_degradation(self, cars_env):
        clock = FakeClock()
        source = SlowSource(cars_env.web_source(), clock, seconds_per_call=1.0)
        mediator = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, deadline_seconds=3.5),
            clock=clock,
        )
        result = mediator.query(QUERY)
        assert result.degraded
        kinds = [failure.kind for failure in result.stats.failures]
        assert kinds == [QueryFailure.DEADLINE]
        # base + 3 rewrites fit into 3.5 fake seconds; the rest were cut.
        assert result.stats.rewritten_issued == 3
        assert len(result.certain) > 0  # certain answers always survive

    def test_strict_deadline_raises(self, cars_env):
        clock = FakeClock()
        source = SlowSource(cars_env.web_source(), clock, seconds_per_call=2.0)
        mediator = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(
                k=10, deadline_seconds=1.0, tolerate_deadline_exceeded=False
            ),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError):
            mediator.query(QUERY)

    def test_no_deadline_no_degradation(self, cars_env):
        clock = FakeClock()
        source = SlowSource(cars_env.web_source(), clock, seconds_per_call=100.0)
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), clock=clock
        )
        assert not mediator.query(QUERY).degraded


class TestStreamingDegradation:
    """`iter_possible` under mid-stream failures (satellite coverage)."""

    def test_mid_stream_failure_skips_only_that_rewrite(self, cars_env):
        clean = list(
            QpiadMediator(
                cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
            ).iter_possible(QUERY)
        )
        # Call 2 is a rewrite that demonstrably contributes possible answers.
        source = FailingAt(cars_env.web_source(), fail_calls={2})
        streamed = list(
            QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10)).iter_possible(
                QUERY
            )
        )
        clean_rows = [answer.row for answer in clean]
        streamed_rows = [answer.row for answer in streamed]
        assert 0 < len(streamed_rows) < len(clean_rows)
        # Survivors keep their relative order.
        iterator = iter(clean_rows)
        assert all(row in iterator for row in streamed_rows)

    def test_stream_failure_budget_propagates(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1, 2})
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10, max_source_failures=1)
        )
        with pytest.raises(SourceUnavailableError):
            list(mediator.iter_possible(QUERY))

    def test_strict_budget_exhaustion_raises_mid_stream(self, cars_env):
        from repro.errors import QueryBudgetExceededError
        from repro.sources import AutonomousSource, SourceCapabilities

        source = AutonomousSource(
            "limited", cars_env.test, SourceCapabilities.web_form(query_budget=2)
        )
        mediator = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, tolerate_budget_exhaustion=False),
        )
        with pytest.raises(QueryBudgetExceededError):
            list(mediator.iter_possible(QUERY))

    def test_deadline_ends_the_stream(self, cars_env):
        clock = FakeClock()
        source = SlowSource(cars_env.web_source(), clock, seconds_per_call=1.0)
        mediator = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, deadline_seconds=2.5),
            clock=clock,
        )
        answers = list(mediator.iter_possible(QUERY))
        # base + 2 rewrites fit; the stream ended early but cleanly.
        batch = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        assert len(answers) < len(batch.ranked)
