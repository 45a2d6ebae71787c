"""Limited query patterns: attributes a form displays but cannot bind."""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.errors import UnsupportedAttributeError
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture()
def restricted_source(cars_env):
    """A form that returns every attribute but only binds make/model/body."""
    return AutonomousSource(
        "restricted",
        cars_env.test,
        SourceCapabilities(
            queryable_attributes=frozenset({"make", "model", "body_style"})
        ),
    )


class TestCapabilityEnforcement:
    def test_can_bind(self):
        capabilities = SourceCapabilities(queryable_attributes=frozenset({"make"}))
        assert capabilities.can_bind("make")
        assert not capabilities.can_bind("price")

    def test_unbindable_constraint_rejected(self, restricted_source):
        with pytest.raises(UnsupportedAttributeError, match="cannot bind"):
            restricted_source.execute(SelectionQuery.equals("price", 20000))
        assert restricted_source.statistics.rejected_queries == 1

    def test_bindable_constraint_accepted(self, restricted_source):
        result = restricted_source.execute(SelectionQuery.equals("make", "Honda"))
        assert len(result) > 0
        # Results still carry the unbindable attributes.
        assert "price" in restricted_source.schema

    def test_can_answer(self, restricted_source):
        from repro.query import Equals

        ok = SelectionQuery.equals("model", "Z4")
        mixed = SelectionQuery.conjunction(
            [Equals("model", "Z4"), Equals("price", 20000)]
        )
        assert restricted_source.can_answer(ok)
        assert not restricted_source.can_answer(mixed)


class TestMediatorSkipsUnissuableRewritings:
    def test_mediation_still_works_with_pattern_limits(self, cars_env, restricted_source):
        """dtrSet(body_style) = {model} is bindable, so rewriting proceeds."""
        mediator = QpiadMediator(
            restricted_source, cars_env.knowledge, QpiadConfig(k=10)
        )
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert result.ranked
        assert restricted_source.statistics.rejected_queries == 0

    def test_unissuable_rewritings_are_skipped_not_burned(self, cars_env):
        """When determining attributes are unbindable, the mediator skips
        those rewritten queries instead of provoking rejections."""
        # certified's determining sets involve year/mileage/price -> unbindable.
        source = AutonomousSource(
            "tight",
            cars_env.test,
            SourceCapabilities(
                queryable_attributes=frozenset({"make", "model", "certified", "body_style"})
            ),
        )
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        result = mediator.query(SelectionQuery.equals("certified", "Yes"))
        assert source.statistics.rejected_queries == 0
        assert result.stats.rewritten_skipped + result.stats.rewritten_issued > 0

    def test_caching_wrapper_proxies_can_answer(self, restricted_source):
        from repro.sources.caching import CachingSource

        cached = CachingSource(restricted_source)
        assert not cached.can_answer(SelectionQuery.equals("price", 20000))
        assert cached.can_answer(SelectionQuery.equals("make", "Honda"))

