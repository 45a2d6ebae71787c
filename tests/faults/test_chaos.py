"""Chaos suite: the full mediator pipeline under seeded fault schedules.

The headline property (the repo's acceptance bar for graceful degradation):
with a seeded :class:`FaultInjectingSource` dropping up to 30% of
rewritten-query executions,

* every certain answer is still returned,
* the result is flagged degraded with a non-empty failure log,
* surviving ranked answers keep their relative order, and
* rerunning the same seed reproduces the identical failure schedule and
  result.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import SelectionQuery

QUERY = SelectionQuery.equals("body_style", "Convt")
SEEDS = (0, 1, 2, 3, 4)
DROP_PLAN = dict(unavailable_rate=0.3, spare_first=1)


def chaos_mediate(env, seed, plan_kwargs=None, config=None):
    plan = FaultPlan(seed=seed, **(plan_kwargs or DROP_PLAN))
    source = FaultInjectingSource(env.web_source(), plan)
    mediator = QpiadMediator(source, env.knowledge, config or QpiadConfig(k=10))
    return mediator.query(QUERY), source


@pytest.fixture(scope="module")
def clean(cars_env):
    return QpiadMediator(
        cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
    ).query(QUERY)


def is_subsequence(rows, reference):
    iterator = iter(reference)
    return all(row in iterator for row in rows)


class TestChaosProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_certain_answers_are_never_lost(self, cars_env, clean, seed):
        result, __ = chaos_mediate(cars_env, seed)
        assert list(result.certain) == list(clean.certain)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_degradation_is_reported_honestly(self, cars_env, seed):
        result, source = chaos_mediate(cars_env, seed)
        absorbed = source.statistics.unavailable
        assert len(result.stats.failures) == absorbed
        assert result.degraded == (absorbed > 0)

    def test_faults_actually_landed_somewhere(self, cars_env):
        # The 30%-drop property is vacuous if no seed ever injects a fault.
        landed = [
            chaos_mediate(cars_env, seed)[1].statistics.unavailable for seed in SEEDS
        ]
        assert any(count > 0 for count in landed)
        result, __ = chaos_mediate(cars_env, SEEDS[landed.index(max(landed))])
        assert result.degraded
        assert result.stats.failures

    @pytest.mark.parametrize("seed", SEEDS)
    def test_surviving_ranking_is_order_consistent(self, cars_env, clean, seed):
        result, __ = chaos_mediate(cars_env, seed)
        clean_rows = [answer.row for answer in clean.ranked]
        survivor_rows = [answer.row for answer in result.ranked]
        assert is_subsequence(survivor_rows, clean_rows)
        confidences = [answer.confidence for answer in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_reproduces_schedule_and_result(self, cars_env, seed):
        first, first_source = chaos_mediate(cars_env, seed)
        second, second_source = chaos_mediate(cars_env, seed)
        assert first_source.statistics.events == second_source.statistics.events
        assert [a.row for a in first.ranked] == [a.row for a in second.ranked]
        assert [a.confidence for a in first.ranked] == [
            a.confidence for a in second.ranked
        ]
        assert first.degraded == second.degraded
        assert [str(f) for f in first.stats.failures] == [
            str(f) for f in second.stats.failures
        ]


class TestMixedFaultWeather:
    """Truncation and churn alongside plain unavailability."""

    MIXED = dict(
        unavailable_rate=0.2,
        churn_rate=0.05,
        truncate_rate=0.1,
        truncate_fraction=0.5,
        spare_first=1,
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_certain_answers_survive_mixed_faults(self, cars_env, clean, seed):
        result, __ = chaos_mediate(cars_env, seed, plan_kwargs=self.MIXED)
        assert list(result.certain) == list(clean.certain)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_truncated_answers_are_a_subset_in_order(self, cars_env, clean, seed):
        result, __ = chaos_mediate(cars_env, seed, plan_kwargs=self.MIXED)
        assert is_subsequence(
            [a.row for a in result.ranked], [a.row for a in clean.ranked]
        )


class TestChaosCachedPlans:
    """The plan cache must not change what a faulty retrieval returns.

    The fault schedule keys off the *sequence* of source calls, so this
    holds only when the cached plan issues the identical call sequence —
    exactly the bit-identical guarantee the planner promises.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cached_leg_matches_uncached_under_faults(self, cars_env, seed):
        from repro.planner import PlanCache

        cache = PlanCache()
        legs = []
        for plan_cache in (None, cache, cache):  # plain, cold, warm
            plan = FaultPlan(seed=seed, **DROP_PLAN)
            source = FaultInjectingSource(cars_env.web_source(), plan)
            mediator = QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(k=10), plan_cache=plan_cache
            )
            result = mediator.query(QUERY)
            legs.append(
                (
                    list(result.certain),
                    [(a.row, a.confidence) for a in result.ranked],
                    result.degraded,
                    [str(f) for f in result.stats.failures],
                    source.statistics.events,
                )
            )
        assert legs[0] == legs[1] == legs[2]
        assert cache.hits >= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_certain_answers_survive_with_a_warm_cache(self, cars_env, clean, seed):
        from repro.planner import PlanCache

        cache = PlanCache()
        for __ in range(2):
            plan = FaultPlan(seed=seed, **DROP_PLAN)
            source = FaultInjectingSource(cars_env.web_source(), plan)
            result = QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(k=10), plan_cache=cache
            ).query(QUERY)
            assert list(result.certain) == list(clean.certain)
        assert cache.hits == 1


class TestChaosStreaming:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_survivors_keep_clean_order(self, cars_env, clean, seed):
        plan = FaultPlan(seed=seed, **DROP_PLAN)
        source = FaultInjectingSource(cars_env.web_source(), plan)
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        streamed = [answer.row for answer in mediator.iter_possible(QUERY)]
        assert is_subsequence(streamed, [answer.row for answer in clean.ranked])

