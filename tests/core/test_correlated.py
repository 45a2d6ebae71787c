"""Cross-source retrieval for unsupported query attributes (Section 4.3)."""

import pytest

from repro.core import (
    CorrelatedConfig,
    CorrelatedSourceMediator,
    find_correlated_source,
)
from repro.errors import QpiadError, RewritingError, UnsupportedAttributeError
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities, SourceRegistry

YAHOO_ATTRS = ("make", "model", "year", "price", "mileage", "certified")


@pytest.fixture(scope="module")
def setting(cars_env):
    """cars.com supports body_style; yahoo does not (Fig. 2's schemas)."""
    carscom = AutonomousSource(
        "cars.com", cars_env.test, SourceCapabilities.web_form()
    )
    yahoo = AutonomousSource(
        "yahoo",
        cars_env.test,
        SourceCapabilities.web_form(),
        local_attributes=YAHOO_ATTRS,
    )
    registry = SourceRegistry(cars_env.test.schema, [carscom, yahoo])
    knowledge = {"cars.com": cars_env.knowledge}
    return registry, knowledge, carscom, yahoo


class TestConfig:
    @pytest.mark.parametrize("field, value", [("alpha", -0.5), ("k", -1)])
    def test_invalid_values_are_rejected_at_construction(self, field, value):
        # Rejected before any mediator can bill a source call for them.
        with pytest.raises(QpiadError, match=field):
            CorrelatedConfig(**{field: value})

    def test_unbounded_k_is_valid(self):
        assert CorrelatedConfig(k=None).k is None


class TestFindCorrelatedSource:
    def test_finds_cars_com_for_body_style(self, setting):
        registry, knowledge, carscom, yahoo = setting
        found = find_correlated_source("body_style", yahoo, registry, knowledge)
        assert found is not None
        source, kb = found
        assert source.name == "cars.com"

    def test_requires_target_to_support_determining_set(self, setting, cars_env):
        registry, knowledge, carscom, __ = setting
        tiny = AutonomousSource(
            "tiny", cars_env.test, local_attributes=("year", "certified")
        )
        registry2 = SourceRegistry(cars_env.test.schema, [carscom, tiny])
        found = find_correlated_source("body_style", tiny, registry2, knowledge)
        # No mined AFD for body_style has a determining set inside
        # {year, certified}, so no correlated source qualifies.
        assert found is None

    def test_no_knowledge_means_no_candidate(self, setting):
        registry, __, carscom, yahoo = setting
        assert find_correlated_source("body_style", yahoo, registry, {}) is None


class TestMediation:
    @pytest.fixture(scope="class")
    def result(self, setting):
        registry, knowledge, __, yahoo = setting
        mediator = CorrelatedSourceMediator(
            registry, knowledge, CorrelatedConfig(k=5)
        )
        return mediator.query(SelectionQuery.equals("body_style", "Convt"), yahoo)

    def test_returns_possible_answers_from_deficient_source(self, result):
        assert result.ranked
        assert len(result.certain) == 0  # yahoo cannot certify body_style

    def test_answers_have_yahoo_schema(self, result):
        assert all(len(answer.row) == len(YAHOO_ATTRS) for answer in result.ranked)

    def test_answers_ranked_by_confidence(self, result):
        confidences = [answer.confidence for answer in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_high_precision_of_top_answers(self, result, cars_env):
        top = result.ranked[:20]
        relevant = sum(
            cars_env.oracle.is_relevant_projection(
                answer.row, YAHOO_ATTRS, result.query
            )
            for answer in top
        )
        assert relevant / len(top) >= 0.6

    def test_fully_supported_query_rejected(self, setting):
        registry, knowledge, carscom, __ = setting
        mediator = CorrelatedSourceMediator(registry, knowledge)
        with pytest.raises(UnsupportedAttributeError):
            mediator.query(SelectionQuery.equals("body_style", "Convt"), carscom)

    def test_unfindable_correlation_raises(self, setting, cars_env):
        registry, knowledge, carscom, __ = setting
        tiny = AutonomousSource(
            "tiny2", cars_env.test, local_attributes=("year", "certified")
        )
        registry.register(tiny)
        mediator = CorrelatedSourceMediator(registry, knowledge)
        with pytest.raises(RewritingError):
            mediator.query(SelectionQuery.equals("body_style", "Convt"), tiny)
