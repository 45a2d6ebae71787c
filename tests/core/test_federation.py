"""Federated mediation across heterogeneous sources."""

import pytest

from repro.core import QpiadConfig
from repro.core.federation import FederatedMediator
from repro.errors import SourceUnavailableError
from repro.query import SelectionQuery
from repro.resilience import SourceScheduler, scheduler_scope
from repro.sources import (
    AutonomousSource,
    SourceCapabilities,
    SourceDecorator,
    SourceRegistry,
)
from repro.telemetry import SpanKind, Telemetry

YAHOO_ATTRS = ("make", "model", "year", "price", "mileage", "certified")


@pytest.fixture(scope="module")
def federation(cars_env):
    carscom = AutonomousSource("cars.com", cars_env.test, SourceCapabilities.web_form())
    yahoo = AutonomousSource(
        "yahoo", cars_env.test, SourceCapabilities.web_form(), local_attributes=YAHOO_ATTRS
    )
    unmined = AutonomousSource(
        "fresh-source", cars_env.test, SourceCapabilities.web_form()
    )
    registry = SourceRegistry(cars_env.test.schema, [carscom, yahoo, unmined])
    mediator = FederatedMediator(
        registry,
        {"cars.com": cars_env.knowledge},
        QpiadConfig(alpha=0.0, k=8),
    )
    return mediator


@pytest.fixture(scope="module")
def result(federation):
    return federation.query(SelectionQuery.equals("body_style", "Convt"))


class TestFederatedQuery:
    def test_supporting_sources_contribute_certain_answers(self, result):
        assert "cars.com" in result.certain
        assert len(result.certain["cars.com"]) > 0
        # The unmined source still contributes certain answers.
        assert "fresh-source" in result.certain
        assert result.certain["fresh-source"] == result.certain["cars.com"]

    def test_deficient_source_contributes_via_correlation(self, result):
        sources = {answer.source for answer in result.ranked}
        assert "yahoo" in sources
        assert "cars.com" in sources

    def test_merged_ranking_is_confidence_ordered(self, result):
        confidences = [answer.confidence for answer in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_certain_count_totals(self, result):
        assert result.certain_count == sum(
            len(relation) for relation in result.certain.values()
        )

    def test_top_prefix(self, result):
        assert result.top(5) == result.ranked[:5]

    def test_per_source_results_kept(self, result):
        assert set(result.per_source) >= {"cars.com", "yahoo"}

    def test_answers_carry_their_source_schema(self, result, cars_env):
        for answer in result.ranked:
            if answer.source == "yahoo":
                assert len(answer.row) == len(YAHOO_ATTRS)
            else:
                assert len(answer.row) == len(cars_env.test.schema)


class TestConfigReachesDeficientSources:
    def test_k_bounds_the_deficient_sources_rewritten_queries(self, cars_env):
        carscom = AutonomousSource("cars.com", cars_env.test, SourceCapabilities.web_form())
        yahoo = AutonomousSource(
            "yahoo", cars_env.test, SourceCapabilities.web_form(), local_attributes=YAHOO_ATTRS
        )
        registry = SourceRegistry(cars_env.test.schema, [carscom, yahoo])
        result = FederatedMediator(
            registry, {"cars.com": cars_env.knowledge}, QpiadConfig(k=2)
        ).query(SelectionQuery.equals("body_style", "Convt"))
        # Every call yahoo answers is a rewritten query: the §4.3 base set
        # comes from cars.com.
        assert "yahoo" in result.per_source
        assert 0 < yahoo.statistics.queries_answered <= 2


class TestFederatedBilling:
    def test_every_source_call_goes_through_the_engine(self, cars_env):
        # The unmined source's certain-only probe is a source call like
        # any other: admitted by the scheduler, billed and spanned.
        carscom = AutonomousSource("cars.com", cars_env.test, SourceCapabilities.web_form())
        unmined = AutonomousSource("fresh-source", cars_env.test, SourceCapabilities.web_form())
        registry = SourceRegistry(cars_env.test.schema, [carscom, unmined])
        telemetry = Telemetry()
        scheduler = SourceScheduler()
        mediator = FederatedMediator(
            registry, {"cars.com": cars_env.knowledge}, QpiadConfig(k=8), telemetry=telemetry
        )
        with scheduler_scope(scheduler):
            mediator.query(SelectionQuery.equals("body_style", "Convt"))
        answered = carscom.statistics.queries_answered + unmined.statistics.queries_answered
        source_spans = [
            span for span in telemetry.tracer.spans if span.kind in SpanKind.SOURCE_CALLS
        ]
        assert scheduler.metrics.value("scheduler.calls") == answered
        assert telemetry.metrics.value("mediator.queries_issued") == answered
        assert len(source_spans) == answered


class DownSource(SourceDecorator):
    """A source whose every call fails transiently."""

    def _call(self, operation, thunk):
        raise SourceUnavailableError(f"{self.inner.name} timed out")


class TestSourceFailureDegradation:
    def _federation(self, cars_env, broken_name: str):
        healthy = AutonomousSource("cars.com", cars_env.test, SourceCapabilities.web_form())
        broken = DownSource(
            AutonomousSource(broken_name, cars_env.test, SourceCapabilities.web_form())
        )
        registry = SourceRegistry(cars_env.test.schema, [healthy, broken])
        return FederatedMediator(
            registry,
            {"cars.com": cars_env.knowledge, broken_name: cars_env.knowledge},
            QpiadConfig(alpha=0.0, k=8),
        )

    def test_one_dead_source_does_not_abort_the_federation(self, cars_env):
        mediator = self._federation(cars_env, "flaky.com")
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert "cars.com" in result.certain  # the healthy source answered in full
        assert len(result.certain["cars.com"]) > 0
        assert result.ranked
        assert result.degraded
        assert result.failed_sources == ("flaky.com",)
        (failure,) = result.failures
        assert "timed out" in failure.message
        assert "flaky.com" in str(failure)

    def test_failed_sources_are_not_confused_with_skipped(self, cars_env):
        mediator = self._federation(cars_env, "flaky.com")
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert result.skipped_sources == []

    def test_healthy_federation_is_not_degraded(self, federation):
        result = federation.query(SelectionQuery.equals("body_style", "Convt"))
        assert not result.degraded
        assert result.failures == []

    def test_per_source_degradation_propagates(self, cars_env):
        class FailSecondCall(SourceDecorator):
            def __init__(self, inner):
                super().__init__(inner)
                self.calls = 0

            def execute(self, query):
                self.calls += 1
                if self.calls == 2:  # the first rewritten query
                    raise SourceUnavailableError("reset")
                return self.inner.execute(query)

        flaky = FailSecondCall(
            AutonomousSource("cars.com", cars_env.test, SourceCapabilities.web_form())
        )
        registry = SourceRegistry(cars_env.test.schema, [flaky])
        mediator = FederatedMediator(
            registry, {"cars.com": cars_env.knowledge}, QpiadConfig(k=8)
        )
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert result.degraded  # the source answered, but only partially
        assert result.per_source["cars.com"].degraded
        assert result.failed_sources == ()  # it did not fail outright


class TestDegradedFederation:
    def test_unreachable_deficient_source_is_skipped(self, cars_env):
        carscom = AutonomousSource("cars.com", cars_env.test)
        # This source lacks body_style AND the determining attribute model,
        # so no correlated rewriting can reach it.
        isolated = AutonomousSource(
            "isolated", cars_env.test, local_attributes=("year", "certified")
        )
        registry = SourceRegistry(cars_env.test.schema, [carscom, isolated])
        mediator = FederatedMediator(registry, {"cars.com": cars_env.knowledge})
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert "isolated" in result.skipped_sources
        assert result.ranked  # the healthy source still answered
