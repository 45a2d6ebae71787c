"""Plan-cache correctness across every mediator that takes a cache.

The acceptance bar of the planner extraction: with a shared
:class:`~repro.planner.PlanCache` attached, every mediator returns answers
*bit-identical* to its uncached twin — same rows, same order, same
confidences, same cost accounting — cold and warm, serial and concurrent.
And the cache invalidates exactly when a planning input changes: a
knowledge refresh or config change misses; a content-identical reload
hits; two sources whose samples differ by one row never cross-talk.
"""

from collections import Counter
from dataclasses import replace

import pytest

import repro.planner.generators as generators_module
from repro.core import (
    AggregateProcessor,
    JoinConfig,
    JoinProcessor,
    QpiadConfig,
    QpiadMediator,
)
from repro.core.relaxation import QueryRelaxer
from repro.evaluation import selection_workload
from tests.workloads import multi_attribute_workload
from repro.mining import KnowledgeBase
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, Ranker
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Between,
    Equals,
    JoinQuery,
    SelectionQuery,
)

WIDTHS = (1, 4)


def _workload(env):
    queries = selection_workload(env, "body_style", 3, seed=5)
    queries += multi_attribute_workload(env, ("make", "body_style"), 2, seed=9)
    return queries


def _fingerprint(result):
    """Everything observable about one mediated retrieval."""
    return {
        "certain": list(result.certain),
        "ranked": [(a.row, a.confidence, a.target_attribute) for a in result.ranked],
        "unranked": list(result.unranked),
        "queries_issued": result.stats.queries_issued,
        "tuples_retrieved": result.stats.tuples_retrieved,
        "rewritten_issued": result.stats.rewritten_issued,
        "rewritten_generated": result.stats.rewritten_generated,
        "rewritten_skipped": result.stats.rewritten_skipped,
        "degraded": result.degraded,
    }


class TestSelectionParity:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_cached_equals_uncached_cold_and_warm(self, cars_env, width):
        source = cars_env.web_source()
        cache = PlanCache()
        config = QpiadConfig(k=10, max_concurrency=width)
        for query in _workload(cars_env):
            plain = _fingerprint(
                QpiadMediator(source, cars_env.knowledge, config).query(query)
            )
            cold_mediator = QpiadMediator(
                source, cars_env.knowledge, config, plan_cache=cache
            )
            cold = _fingerprint(cold_mediator.query(query))
            assert cold_mediator.last_plan is not None
            assert not cold_mediator.last_plan.cached
            warm_mediator = QpiadMediator(
                source, cars_env.knowledge, config, plan_cache=cache
            )
            warm = _fingerprint(warm_mediator.query(query))
            assert warm_mediator.last_plan is not None
            assert warm_mediator.last_plan.cached
            assert plain == cold == warm, query
        assert cache.hits >= len(_workload(cars_env))
        assert cache.evictions == 0

    def test_warm_plans_are_step_identical(self, cars_env):
        source = cars_env.web_source()
        cache = PlanCache()
        query = SelectionQuery.equals("body_style", "Convt")
        first = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), plan_cache=cache
        )
        first.query(query)
        second = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), plan_cache=cache
        )
        second.query(query)
        assert first.last_plan.steps == second.last_plan.steps
        assert first.last_plan.generated == second.last_plan.generated
        assert first.last_plan.skipped == second.last_plan.skipped


class TestWarmHitsPlanNothing:
    """A warm plan is a lookup: no candidate is generated and none ranked."""

    QUERIES = (
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.equals("body_style", "Sedan"),
        SelectionQuery.equals("make", "BMW"),
        SelectionQuery.equals("make", "Honda"),
    )

    def test_warm_plans_call_neither_generator_nor_ranker(self, cars_env, monkeypatch):
        source = cars_env.web_source()
        base_sets = {query: source.execute(query) for query in self.QUERIES}
        config = PlannerConfig(alpha=0.0, k=10)
        uncached = QueryPlanner(cars_env.knowledge, config)
        expected = {
            query: uncached.plan_selection(query, base_sets[query], source=source)
            for query in self.QUERIES
        }

        calls: Counter = Counter()

        def count(owner, attribute):
            original = getattr(owner, attribute)

            def counting(*args, **kwargs):
                calls[attribute] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, counting)

        count(generators_module, "rewritten_from_bindings")
        count(Ranker, "order")

        cache = PlanCache()
        planner = QueryPlanner(cars_env.knowledge, config, cache=cache)
        for query in self.QUERIES:  # cold: each plan is built once
            planner.plan_selection(query, base_sets[query], source=source)
        built = len(self.QUERIES)
        assert calls == Counter(rewritten_from_bindings=built, order=built)

        calls.clear()
        repetitions = 3
        for _ in range(repetitions):
            for query in self.QUERIES:
                plan = planner.plan_selection(query, base_sets[query], source=source)
                assert plan.cached
                assert replace(plan, cached=False) == expected[query]
        assert calls == Counter()
        assert cache.hits == repetitions * len(self.QUERIES)
        assert cache.misses == len(self.QUERIES)


class TestAggregateParity:
    @pytest.mark.parametrize("rule", ["argmax", "fractional"])
    def test_cached_equals_uncached(self, cars_env, rule):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"),
            AggregateFunction.SUM,
            "price",
        )
        cache = PlanCache()
        outcomes = []
        for plan_cache in (None, cache, cache):
            result = AggregateProcessor(
                cars_env.web_source(),
                cars_env.knowledge,
                inclusion_rule=rule,
                plan_cache=plan_cache,
            ).query(aggregate)
            outcomes.append(
                (
                    result.certain_value,
                    result.predicted_value,
                    result.included_queries,
                    result.considered_queries,
                    result.possible_count,
                    result.stats.queries_issued,
                    result.stats.rewritten_skipped,
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert cache.hits >= 1


class TestJoinParity:
    def test_cached_equals_uncached(self, cars_env, complaints_env):
        join_query = JoinQuery(
            SelectionQuery.equals("model", "Grand Cherokee"),
            SelectionQuery.equals(
                "general_component", "Engine and Engine Cooling"
            ),
            "model",
        )
        cache = PlanCache()
        outcomes = []
        for plan_cache in (None, cache, cache):
            result = JoinProcessor(
                cars_env.web_source(),
                complaints_env.web_source(),
                cars_env.knowledge,
                complaints_env.knowledge,
                JoinConfig(alpha=0.5, k_pairs=10),
                plan_cache=plan_cache,
            ).query(join_query)
            outcomes.append(
                [
                    (a.left_row, a.right_row, a.join_value, a.confidence, a.certain)
                    for a in result.certain + result.possible
                ]
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert cache.hits >= 1


class TestRelaxationParity:
    def test_cached_equals_uncached(self, cars_env):
        query = SelectionQuery.conjunction(
            [
                Equals("make", "Porsche"),
                Between("price", 6000, 8000),
                Equals("certified", "Yes"),
            ]
        )
        cache = PlanCache()
        outcomes = []
        for plan_cache in (None, cache, cache):
            answers = QueryRelaxer(
                cars_env.web_source(), cars_env.knowledge, plan_cache=plan_cache
            ).query(query, target_count=8)
            outcomes.append(
                [
                    (a.row, a.similarity, a.satisfied, a.violated, repr(a.retrieved_by))
                    for a in answers
                ]
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert cache.hits >= 1


class TestInvalidation:
    QUERY = SelectionQuery.equals("body_style", "Convt")

    def _base_set(self, cars_env, source):
        return source.execute(self.QUERY)

    def test_content_identical_reload_hits(self, cars_env, tmp_path):
        from repro.mining.persistence import load_knowledge, save_knowledge

        source = cars_env.web_source()
        base_set = self._base_set(cars_env, source)
        cache = PlanCache()
        cold = QueryPlanner(
            cars_env.knowledge, PlannerConfig(k=10), cache=cache
        ).plan_selection(self.QUERY, base_set, source=source)

        path = tmp_path / "cars.kb.json"
        save_knowledge(cars_env.knowledge, path)
        reloaded = load_knowledge(path)
        warm = QueryPlanner(
            reloaded, PlannerConfig(k=10), cache=cache
        ).plan_selection(self.QUERY, base_set, source=source)

        assert not cold.cached
        assert warm.cached
        assert warm.steps == cold.steps

    def test_knowledge_refresh_misses(self, cars_env):
        source = cars_env.web_source()
        base_set = self._base_set(cars_env, source)
        cache = PlanCache()
        QueryPlanner(
            cars_env.knowledge, PlannerConfig(k=10), cache=cache
        ).plan_selection(self.QUERY, base_set, source=source)
        # Re-mine from a refreshed (here: shorter) probing sample — the
        # fingerprint changes, so the old plan must not be served.
        refreshed = KnowledgeBase(
            cars_env.train.take(len(cars_env.train) - 1),
            database_size=cars_env.knowledge.database_size,
            config=cars_env.knowledge.config,
        )
        plan = QueryPlanner(
            refreshed, PlannerConfig(k=10), cache=cache
        ).plan_selection(self.QUERY, base_set, source=source)
        assert not plan.cached
        assert cache.misses == 2
        assert len(cache) == 2

    def test_planner_config_change_misses(self, cars_env):
        source = cars_env.web_source()
        base_set = self._base_set(cars_env, source)
        cache = PlanCache()
        planner = QueryPlanner(
            cars_env.knowledge, PlannerConfig(alpha=0.0, k=10), cache=cache
        )
        planner.plan_selection(self.QUERY, base_set, source=source)
        for config in (
            PlannerConfig(alpha=0.5, k=10),
            PlannerConfig(alpha=0.0, k=5),
            PlannerConfig(alpha=0.0, k=10, min_confidence=0.4),
            PlannerConfig(alpha=0.0, k=10, classifier_method="ensemble"),
        ):
            plan = QueryPlanner(
                cars_env.knowledge, config, cache=cache
            ).plan_selection(self.QUERY, base_set, source=source)
            assert not plan.cached, config
        assert cache.hits == 0

    def test_base_set_row_order_misses(self, cars_env):
        from repro.relational import Relation

        source = cars_env.web_source()
        base_set = self._base_set(cars_env, source)
        assert len(base_set) >= 2
        rows = list(base_set)
        rows[0], rows[1] = rows[1], rows[0]
        reordered = Relation(base_set.schema, rows)
        cache = PlanCache()
        planner = QueryPlanner(cars_env.knowledge, PlannerConfig(k=10), cache=cache)
        planner.plan_selection(self.QUERY, base_set, source=source)
        plan = planner.plan_selection(self.QUERY, reordered, source=source)
        assert not plan.cached

    def test_no_cross_talk_between_sources_differing_by_one_row(self, cars_env):
        # Two sources whose mined samples differ by exactly one tuple share
        # one cache; each must be served from its own lineage.
        sample = cars_env.train.take(200)
        kb_full = KnowledgeBase(sample, database_size=len(cars_env.test))
        kb_short = KnowledgeBase(
            sample.take(len(sample) - 1), database_size=len(cars_env.test)
        )
        assert kb_full.fingerprint() != kb_short.fingerprint()

        source = cars_env.web_source()
        base_set = self._base_set(cars_env, source)
        shared = PlanCache()
        cached_full = QueryPlanner(
            kb_full, PlannerConfig(k=10), cache=shared
        ).plan_selection(self.QUERY, base_set, source=source)
        cached_short = QueryPlanner(
            kb_short, PlannerConfig(k=10), cache=shared
        ).plan_selection(self.QUERY, base_set, source=source)
        assert shared.hits == 0 and shared.misses == 2

        # Each cached plan is bit-identical to its own uncached twin.
        plain_full = QueryPlanner(kb_full, PlannerConfig(k=10)).plan_selection(
            self.QUERY, base_set, source=source
        )
        plain_short = QueryPlanner(kb_short, PlannerConfig(k=10)).plan_selection(
            self.QUERY, base_set, source=source
        )
        assert cached_full.steps == plain_full.steps
        assert cached_short.steps == plain_short.steps

        # And warm lookups keep the two lineages apart.
        warm_full = QueryPlanner(
            kb_full, PlannerConfig(k=10), cache=shared
        ).plan_selection(self.QUERY, base_set, source=source)
        warm_short = QueryPlanner(
            kb_short, PlannerConfig(k=10), cache=shared
        ).plan_selection(self.QUERY, base_set, source=source)
        assert warm_full.cached and warm_short.cached
        assert warm_full.steps == plain_full.steps
        assert warm_short.steps == plain_short.steps
