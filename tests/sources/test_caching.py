"""Result caching in front of autonomous sources."""

import pytest

from repro.errors import NullBindingError, QpiadError
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema
from repro.sources import AutonomousSource
from repro.sources.caching import CachingSource


@pytest.fixture()
def backend() -> Relation:
    schema = Schema.of("make", "model", "body")
    return Relation(
        schema,
        [
            ("Honda", "Accord", "Sedan"),
            ("BMW", "Z4", NULL),
            ("BMW", "Z4", "Convt"),
        ],
    )


@pytest.fixture()
def source(backend) -> CachingSource:
    return CachingSource(AutonomousSource("cars", backend), capacity=2)


class TestCaching:
    def test_repeat_query_hits_the_cache(self, source):
        query = SelectionQuery.equals("make", "BMW")
        first = source.execute(query)
        second = source.execute(query)
        assert first == second
        assert source.statistics.hits == 1
        assert source.statistics.misses == 1
        assert source.inner.statistics.queries_answered == 1

    def test_equivalent_queries_share_an_entry(self, source):
        from repro.query import Equals

        a = SelectionQuery.conjunction([Equals("make", "BMW"), Equals("model", "Z4")])
        b = SelectionQuery.conjunction([Equals("model", "Z4"), Equals("make", "BMW")])
        source.execute(a)
        source.execute(b)
        assert source.statistics.hits == 1

    def test_lru_eviction(self, source):
        queries = [SelectionQuery.equals("make", make) for make in ("Honda", "BMW", "Audi")]
        for query in queries:
            source.execute(query)
        assert source.statistics.evictions == 1
        source.execute(queries[0])  # evicted -> miss again
        assert source.statistics.misses == 4

    def test_hit_rate(self, source):
        query = SelectionQuery.equals("make", "BMW")
        source.execute(query)
        source.execute(query)
        source.execute(query)
        assert source.statistics.hit_rate == pytest.approx(2 / 3)

    def test_invalid_capacity_rejected(self, backend):
        with pytest.raises(QpiadError):
            CachingSource(AutonomousSource("cars", backend), capacity=0)


class TestTransparency:
    def test_surface_matches_inner_source(self, source):
        assert source.name == "cars"
        assert source.supports("make") and not source.supports("price")
        assert source.cardinality() == 3
        assert source.schema.names == ("make", "model", "body")

    def test_null_binding_is_not_cached_and_still_restricted(self, source):
        with pytest.raises(NullBindingError):
            source.execute_null_binding(SelectionQuery.equals("body", "Convt"))

    def test_reset_statistics_resets_both_layers(self, source):
        source.execute(SelectionQuery.equals("make", "BMW"))
        source.reset_statistics()
        assert source.statistics.misses == 0
        assert source.inner.statistics.queries_answered == 0

    def test_mediator_runs_through_the_cache(self, cars_env):
        from repro.core import QpiadConfig, QpiadMediator
        from repro.query import SelectionQuery

        cached = CachingSource(cars_env.web_source(), capacity=128)
        mediator = QpiadMediator(cached, cars_env.knowledge, QpiadConfig(k=5))
        query = SelectionQuery.equals("body_style", "Convt")
        first = mediator.query(query)
        inner_before = cached.inner.statistics.queries_answered
        second = mediator.query(query)
        assert cached.inner.statistics.queries_answered == inner_before
        assert [a.row for a in first.ranked] == [a.row for a in second.ranked]
