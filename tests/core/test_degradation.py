"""Graceful degradation of the mediator under transient source failures.

The companion chaos suite (``tests/faults/``) drives randomized seeded
schedules; these tests script *exact* failure points to pin down the
degradation semantics: which failures are absorbed, what the failure log
records, and that a strict engine propagates them instead.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator, QueryFailure
from repro.core.results import RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import QueryBudgetExceededError, SourceUnavailableError
from repro.planner import PlannerConfig, QueryPlanner
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities, SourceDecorator

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


def strict_retrieval(env, source):
    """Run the mediator's retrieval of QUERY (the base call, then its
    top-10 rewritten plan, drained) on a strict engine."""
    engine = RetrievalEngine(source, RetrievalStats(), strict=True, max_concurrency=1)
    base = engine.run_base(PlannedQuery(query=QUERY, kind=QueryKind.BASE, rank=0))
    planner = QueryPlanner(env.knowledge, PlannerConfig(k=10))
    steps = planner.plan_selection(QUERY, base, source=source).steps
    for __ in engine.stream(steps, drained=True):
        pass


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


class TestStrictness:
    def test_a_strict_engine_raises_the_first_failure(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={1})
        with pytest.raises(SourceUnavailableError):
            strict_retrieval(cars_env, source)
        # The plan stopped at the failed rewrite: base + one call.
        assert source.calls == 2

    def test_base_query_failure_always_propagates(self, cars_env):
        source = FailingAt(cars_env.web_source(), fail_calls={0})
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        with pytest.raises(SourceUnavailableError):
            mediator.query(QUERY)


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

    def test_strict_budget_exhaustion_raises_mid_stream(self, cars_env):
        source = AutonomousSource(
            "limited", cars_env.test, SourceCapabilities.web_form(query_budget=2)
        )
        with pytest.raises(QueryBudgetExceededError):
            strict_retrieval(cars_env, source)
