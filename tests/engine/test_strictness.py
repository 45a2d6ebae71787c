"""Which mediators degrade and which are strict, pinned per call site.

``QpiadMediator`` runs a degrading engine: a failed rewritten query is
recorded and skipped, and a spent source budget ends the plan with the
answers gathered so far.  The join, aggregate, correlated-source and
relaxation mediators run a strict engine and raise the first failure.
Each case below lets the base call through and fails every later call
to the source the mediator's other calls go to, then checks which of
the two it got.
"""

import pytest

from repro.core import (
    AggregateProcessor,
    CorrelatedConfig,
    CorrelatedSourceMediator,
    JoinConfig,
    JoinProcessor,
    QpiadConfig,
    QpiadMediator,
    QueryRelaxer,
)
from repro.core.results import RetrievalStats
from repro.errors import QueryBudgetExceededError, SourceUnavailableError
from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Between,
    Equals,
    JoinQuery,
    SelectionQuery,
)
from repro.sources import AutonomousSource, SourceCapabilities, SourceRegistry

SELECTION = SelectionQuery.equals("body_style", "Convt")
JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)


def failing_after_base(source):
    """*source* with its first call spared and every later call failed."""
    return FaultInjectingSource(
        source, FaultPlan(seed=0, unavailable_rate=1.0, spare_first=1)
    )


def budgeted(env, budget):
    return AutonomousSource(
        env.name, env.test, SourceCapabilities.web_form(query_budget=budget)
    )


def join_processor(cars_env, complaints_env, right):
    return JoinProcessor(
        cars_env.web_source(),
        right,
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10),
    )


@pytest.fixture(scope="module")
def clean(cars_env):
    return QpiadMediator(
        cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
    ).query(SELECTION)


class TestTheSelectionDegrades:
    def test_query(self, cars_env, clean):
        source = failing_after_base(cars_env.web_source())
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10)).query(
            SELECTION
        )
        assert list(result.certain) == list(clean.certain)
        assert result.degraded
        assert result.ranked == []
        failed_steps = source.statistics.calls - 1
        assert failed_steps > 1
        assert [failure.kind for failure in result.stats.failures] == [
            "source-unavailable"
        ] * failed_steps

    def test_drained_stream(self, cars_env):
        source = failing_after_base(cars_env.web_source())
        stats = RetrievalStats()
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        assert list(mediator.iter_possible(SELECTION, stats)) == []
        failed_steps = source.statistics.calls - 1
        assert failed_steps > 1
        assert [failure.kind for failure in stats.failures] == [
            "source-unavailable"
        ] * failed_steps

    def test_a_spent_budget_halts_the_plan(self, cars_env, clean):
        source = budgeted(cars_env, 3)  # the base call and two rewritten
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10)).query(
            SELECTION
        )
        assert list(result.certain) == list(clean.certain)
        assert result.degraded
        assert result.stats.rewritten_issued == 2
        assert [failure.kind for failure in result.stats.failures] == [
            "budget-exhausted"
        ]


class TestTheOtherMediatorsAreStrict:
    def test_join(self, cars_env, complaints_env):
        right = failing_after_base(complaints_env.web_source())
        with pytest.raises(SourceUnavailableError):
            join_processor(cars_env, complaints_env, right).query(JOIN)

    def test_join_on_a_spent_budget(self, cars_env, complaints_env):
        right = budgeted(complaints_env, 1)  # the base call only
        with pytest.raises(QueryBudgetExceededError):
            join_processor(cars_env, complaints_env, right).query(JOIN)

    def test_aggregate(self, cars_env):
        source = failing_after_base(cars_env.web_source())
        aggregate = AggregateQuery(SELECTION, AggregateFunction.COUNT)
        with pytest.raises(SourceUnavailableError):
            AggregateProcessor(source, cars_env.knowledge).query(aggregate)

    def test_correlated(self, cars_env):
        carscom = AutonomousSource(
            "cars.com", cars_env.test, SourceCapabilities.web_form()
        )
        yahoo = AutonomousSource(
            "yahoo",
            cars_env.test,
            SourceCapabilities.web_form(),
            local_attributes=("make", "model", "year", "price", "mileage", "certified"),
        )
        registry = SourceRegistry(cars_env.test.schema, [carscom, yahoo])
        mediator = CorrelatedSourceMediator(
            registry, {"cars.com": cars_env.knowledge}, CorrelatedConfig(k=5)
        )
        # The base call goes to cars.com and the rewritten ones to yahoo,
        # whose first call is spared and second one fails.
        with pytest.raises(SourceUnavailableError):
            mediator.query(SELECTION, failing_after_base(yahoo))

    def test_relaxation(self, cars_env):
        # A sub-$8000 certified Porsche does not exist: no exact answer,
        # so the relaxer must issue relaxed queries.
        overconstrained = SelectionQuery.conjunction(
            [Equals("make", "Porsche"), Between("price", 6000, 8000), Equals("certified", "Yes")]
        )
        source = failing_after_base(cars_env.web_source())
        with pytest.raises(SourceUnavailableError):
            QueryRelaxer(source, cars_env.knowledge).query(overconstrained, target_count=5)
