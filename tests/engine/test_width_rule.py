"""The engine's per-query width rule for an unpinned ``max_concurrency``.

With ``QpiadConfig.max_concurrency`` left at ``None``, the engine times
the base call it issues anyway.  A drained plan (``QpiadMediator.query``)
fans out only when that call mostly waited on the source and nothing can
end the plan early or shed part of it; everything else — an in-process
source, a strict engine, a declared query budget, a bounded admission
queue, the lazy ``iter_possible`` stream — keeps one call in flight.
Whatever the width, the answers and their accounting must equal the
serial run's bit for bit.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.engine import ConcurrentExecutor, PlannedQuery, QueryKind, RetrievalEngine
from repro.engine import engine as engine_module
from repro.errors import QpiadError
from repro.evaluation import selection_workload
from tests.workloads import multi_attribute_workload
from repro.planner import PlannerConfig, QueryPlanner
from repro.resilience import SourcePolicy, SourceScheduler
from repro.sources import AutonomousSource, SourceCapabilities, SourceDecorator

#: Per-call round trip of the sleeping source: long next to the base
#: call's CPU time, short enough to keep the module fast.
ROUND_TRIP_S = 0.005


class SleepingSource(SourceDecorator):
    """A remote-looking source: each call sleeps before the in-process
    source answers.  Records the most calls ever in flight at once."""

    def __init__(self, inner: AutonomousSource, seconds: float = ROUND_TRIP_S):
        super().__init__(inner)
        self.seconds = seconds
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0

    def execute(self, query):
        with self._lock:
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            time.sleep(self.seconds)
            return self.inner.execute(query)
        finally:
            with self._lock:
                self._in_flight -= 1


class FakeClocks:
    """Stands in for the engine's ``time`` module.  Each reading of the
    wall clock advances it by *wall* seconds and each reading of the CPU
    clock advances that by *cpu*, so every timed base call measures
    exactly *wall* seconds, *cpu* of them on the CPU, whatever the host's
    load."""

    def __init__(self, wall: float, cpu: float):
        self._wall = itertools.count(0.0, wall)
        self._cpu = itertools.count(0.0, cpu)

    def perf_counter(self) -> float:
        return next(self._wall)

    def thread_time(self) -> float:
        return next(self._cpu)


def sleeping(env, capabilities: SourceCapabilities | None = None) -> SleepingSource:
    return SleepingSource(
        AutonomousSource(
            env.name, env.test, capabilities or SourceCapabilities.web_form()
        )
    )


@pytest.fixture()
def fan_outs(monkeypatch) -> list[int]:
    """The width of every plan the engine fans out while the test runs."""
    widths: list[int] = []

    class Recording(ConcurrentExecutor):
        def __init__(self, max_workers: int):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(engine_module, "ConcurrentExecutor", Recording)
    return widths


def cars_queries(env):
    queries = selection_workload(env, "body_style", 3, seed=5)
    return queries + multi_attribute_workload(env, ("make", "body_style"), 2, seed=9)


def census_queries(env):
    return selection_workload(env, "occupation", 3, seed=3)


def observed(result) -> dict:
    """Everything a caller can observe of one retrieval."""
    return {
        "certain": list(result.certain),
        "ranked": [
            (answer.row, answer.confidence, answer.target_attribute)
            for answer in result.ranked
        ],
        "unranked": list(result.unranked),
        "queries_issued": result.stats.queries_issued,
        "rewritten_issued": result.stats.rewritten_issued,
        "tuples_retrieved": result.stats.tuples_retrieved,
        "duplicates_discarded": result.stats.duplicates_discarded,
        "degraded": result.degraded,
    }


class TestConfiguration:
    def test_width_is_unpinned_by_default(self):
        assert QpiadConfig().max_concurrency is None

    @pytest.mark.parametrize("width", [0, -1])
    def test_a_pinned_width_must_be_positive(self, width):
        with pytest.raises(QpiadError, match="max_concurrency"):
            QpiadConfig(max_concurrency=width)
        with pytest.raises(QpiadError, match="max_concurrency"):
            RetrievalEngine(None, RetrievalStats(), max_concurrency=width)


class TestDefaultEqualsSerial:
    @pytest.mark.parametrize(
        "env_name, queries",
        [("cars_env", cars_queries), ("census_env", census_queries)],
    )
    def test_bit_identical_on_a_sleeping_source(
        self, request, fan_outs, env_name, queries
    ):
        env = request.getfixturevalue(env_name)
        serial_source, default_source = sleeping(env), sleeping(env)
        serial = QpiadMediator(
            serial_source, env.knowledge, QpiadConfig(max_concurrency=1)
        )
        default = QpiadMediator(default_source, env.knowledge, QpiadConfig())
        for query in queries(env):
            expected = observed(serial.query(query))
            assert observed(default.query(query)) == expected, query
        assert serial_source.peak_in_flight == 1
        assert fan_outs, "the default never fanned out on a sleeping source"
        assert default_source.peak_in_flight > 1


class TestMeasurement:
    """The decision rests on the timed base call alone: with the clocks
    faked, the same in-process source goes either way."""

    def test_in_process_source(self, cars_env, fan_outs, monkeypatch):
        # An in-process call is all CPU: 9 of its 10 ms on this thread.
        monkeypatch.setattr(engine_module, "time", FakeClocks(wall=0.010, cpu=0.009))
        mediator = QpiadMediator(cars_env.web_source(), cars_env.knowledge)
        for query in cars_queries(cars_env)[:3]:
            result = mediator.query(query)
            assert result.stats.rewritten_issued > 1  # a plan worth overlapping
        assert fan_outs == []

    def test_a_base_call_that_mostly_waits(self, cars_env, fan_outs, monkeypatch):
        serial = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(max_concurrency=1)
        )
        monkeypatch.setattr(engine_module, "time", FakeClocks(wall=0.010, cpu=0.001))
        default = QpiadMediator(cars_env.web_source(), cars_env.knowledge)
        queries = cars_queries(cars_env)[:3]
        for query in queries:
            assert observed(default.query(query)) == observed(serial.query(query))
        assert len(fan_outs) == len(queries)


class TestStaysSerial:
    @pytest.mark.parametrize(
        "capabilities",
        [SourceCapabilities.web_form(query_budget=100)],
        ids=["query-budget"],
    )
    def test_a_plan_that_can_end_early(self, cars_env, fan_outs, capabilities):
        source = sleeping(cars_env, capabilities)
        result = QpiadMediator(source, cars_env.knowledge).query(
            cars_queries(cars_env)[0]
        )
        assert result.stats.rewritten_issued > 1  # a plan worth overlapping
        assert source.peak_in_flight == 1
        assert fan_outs == []

    def test_a_strict_engine(self, cars_env, fan_outs):
        # Its first failure ends the plan, so a wider window could put
        # calls on the wire that a serial run never makes.
        source = sleeping(cars_env)
        query = cars_queries(cars_env)[0]
        stats = RetrievalStats()
        engine = RetrievalEngine(source, stats, strict=True)
        base = engine.run_base(PlannedQuery(query=query, kind=QueryKind.BASE, rank=0))
        planner = QueryPlanner(cars_env.knowledge, PlannerConfig(k=10))
        steps = planner.plan_selection(query, base, source=source).steps
        assert len(list(engine.stream(steps, drained=True))) > 1
        assert source.peak_in_flight == 1
        assert fan_outs == []

    @pytest.mark.parametrize(
        "policy",
        [SourcePolicy(), SourcePolicy(max_concurrent=1, max_queue=1)],
        ids=["default-policy", "one-slot-one-waiter"],
    )
    def test_a_bounded_admission_queue(self, cars_env, fan_outs, policy):
        # A serial plan holds one place in the queue; a fanned-out one
        # would hold up to its width, and callers past the bound are shed.
        query = cars_queries(cars_env)[0]
        serial = QpiadMediator(
            sleeping(cars_env),
            cars_env.knowledge,
            QpiadConfig(max_concurrency=1),
            scheduler=SourceScheduler(policy),
        ).query(query)
        source = sleeping(cars_env)
        scheduler = SourceScheduler(policy)
        default = QpiadMediator(
            source, cars_env.knowledge, scheduler=scheduler
        ).query(query)
        assert observed(default) == observed(serial)
        assert not default.degraded and default.stats.rewritten_issued > 1
        assert scheduler.metrics.value("scheduler.rejected_queue_full") == 0
        assert source.peak_in_flight == 1
        assert fan_outs == []

    def test_the_lazy_stream(self, cars_env, fan_outs):
        source = sleeping(cars_env)
        stats = RetrievalStats()
        mediator = QpiadMediator(source, cars_env.knowledge)
        answers = list(mediator.iter_possible(cars_queries(cars_env)[0], stats))
        assert answers and stats.rewritten_issued > 1
        assert source.peak_in_flight == 1
        assert fan_outs == []


class TestWidth:
    def test_scheduler_concurrency_cap_bounds_the_width(self, cars_env, fan_outs):
        query = cars_queries(cars_env)[0]
        serial = QpiadMediator(
            sleeping(cars_env), cars_env.knowledge, QpiadConfig(max_concurrency=1)
        ).query(query)
        source = sleeping(cars_env)
        scheduler = SourceScheduler(SourcePolicy(max_concurrent=3, max_queue=None))
        default = QpiadMediator(
            source, cars_env.knowledge, scheduler=scheduler
        ).query(query)
        assert observed(default) == observed(serial)
        assert fan_outs == [3]
        assert source.peak_in_flight == 3

    def test_short_plan_fans_out_as_wide_as_it_is_long(self, cars_env, fan_outs):
        source = sleeping(cars_env)
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=4)).query(
            cars_queries(cars_env)[0]
        )
        assert fan_outs == [result.stats.rewritten_issued] == [4]

    def test_fan_out_is_capped_by_the_module_constant(
        self, cars_env, fan_outs, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_FAN_OUT_WIDTH", 3)
        source = sleeping(cars_env)
        result = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=None)).query(
            cars_queries(cars_env)[0]
        )
        assert result.stats.rewritten_issued > 3
        assert fan_outs == [3]

    def test_pinned_width_never_consults_the_rule(self, cars_env, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pinned width consulted the rule")

        monkeypatch.setattr(engine_module.RetrievalEngine, "_fan_out_width", refuse)
        source = sleeping(cars_env)
        for width in (1, 4):
            QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(max_concurrency=width)
            ).query(cars_queries(cars_env)[0])
