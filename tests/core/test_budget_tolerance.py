"""Graceful degradation when the source's query budget runs out."""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import QueryBudgetExceededError
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities


def _budgeted_source(env, budget: int) -> AutonomousSource:
    return AutonomousSource(
        env.name, env.test, SourceCapabilities.web_form(query_budget=budget)
    )


class TestToleratedExhaustion:
    def test_partial_results_returned(self, cars_env):
        source = _budgeted_source(cars_env, budget=3)  # base + 2 rewritten
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert len(result.certain) > 0
        assert result.stats.rewritten_issued == 2
        # The answers that did come back are still in rank order.
        confidences = [a.confidence for a in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_higher_budget_never_loses_answers(self, cars_env):
        query = SelectionQuery.equals("body_style", "Convt")
        counts = []
        for budget in (2, 5, 11):
            source = _budgeted_source(cars_env, budget)
            mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
            counts.append(len(mediator.query(query).ranked))
        assert counts == sorted(counts)


class TestStrictMode:
    def test_exhaustion_propagates_when_not_tolerated(self, cars_env):
        source = _budgeted_source(cars_env, budget=2)  # base + 1 rewritten
        stats = RetrievalStats()
        engine = RetrievalEngine(source, stats, strict=True)
        engine.run_base(
            PlannedQuery(
                query=SelectionQuery.equals("body_style", "Convt"),
                kind=QueryKind.BASE,
                rank=0,
            )
        )
        plan = [
            PlannedQuery(query=SelectionQuery.equals("model", model), rank=rank)
            for rank, model in enumerate(["Boxster", "Z4", "Solara"])
        ]
        with pytest.raises(QueryBudgetExceededError):
            list(engine.stream(plan, drained=True))
        # The exhaustion is recorded before it propagates.
        assert [failure.kind for failure in stats.failures] == ["budget-exhausted"]
        assert engine.degraded

    def test_base_query_failure_always_propagates(self, cars_env):
        source = _budgeted_source(cars_env, budget=0)
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        with pytest.raises(QueryBudgetExceededError):
            mediator.query(SelectionQuery.equals("body_style", "Convt"))
