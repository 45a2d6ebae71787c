"""Worker pools live as long as the retrieval that needs them, no longer.

A join runs two plans, its base calls and then its components, on one
engine at a pinned width, which is counted per source; entered as a
context manager, the engine keeps one worker pool per source for both
plans and joins their workers when the join's stream is drained or
closed.  A plan the engine fans out on its own (an unpinned width) keeps
a pool of its own, released when that plan ends.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import JoinConfig, JoinProcessor, JoinResult
from repro.core.results import RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.planner import PlannerConfig, QueryPlanner
from repro.query import JoinQuery, SelectionQuery
from repro.sources import SourceDecorator

JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)


class ThreadRecordingSource(SourceDecorator):
    """Notes the thread every call runs on; sleeps first when asked to,
    so the engine sees a source that waits."""

    def __init__(self, inner, seconds: float = 0.0):
        super().__init__(inner)
        self.seconds = seconds
        self.threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def execute(self, query):
        with self._lock:
            self.threads.append(threading.current_thread())
        if self.seconds:
            time.sleep(self.seconds)
        return super().execute(query)


def _workers_started_since(before: set[threading.Thread]) -> list[threading.Thread]:
    """The engine's worker threads alive now that were not alive *before*."""
    return [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("qpiad-engine")
    ]


def _join_processor(cars_env, complaints_env, width: int = 2):
    left = ThreadRecordingSource(cars_env.web_source())
    right = ThreadRecordingSource(complaints_env.web_source())
    processor = JoinProcessor(
        left,
        right,
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
    )
    return processor, left, right


class TestOneJoinOnePool:
    def test_base_and_component_calls_share_two_workers(
        self, cars_env, complaints_env
    ):
        processor, left, right = _join_processor(cars_env, complaints_env)
        result = processor.query(JOIN)
        assert result.base_queries_issued == 2
        assert result.component_queries_issued >= 2
        # The width is per source: each source's base and component calls
        # share that source's two workers.
        for source in (left, right):
            assert len(set(source.threads)) <= 2
        workers = set(left.threads + right.threads)
        assert all(worker.name.startswith("qpiad-engine") for worker in workers)

    def test_no_worker_outlives_a_drained_join(self, cars_env, complaints_env):
        processor, *__ = _join_processor(cars_env, complaints_env)
        before = set(threading.enumerate())
        processor.query(JOIN)
        assert _workers_started_since(before) == []

    @pytest.mark.parametrize("closed_at", ["first", "first-possible"])
    def test_no_worker_outlives_a_closed_join(
        self, cars_env, complaints_env, closed_at
    ):
        processor, left, right = _join_processor(cars_env, complaints_env)
        before = set(threading.enumerate())
        result = JoinResult(query=JOIN)
        stream = processor.stream_answers(JOIN, result=result)
        for candidate in stream:
            if closed_at == "first" or not candidate.certain:
                break
        stream.close()
        assert _workers_started_since(before) == []
        # Every call the pool accepted ran and was billed before the
        # stream's counters were settled.
        calls = len(left.threads) + len(right.threads)
        assert result.stats.queries_issued == calls
        assert (
            result.base_queries_issued + result.component_queries_issued == calls
        )


class TestFanOutPlan:
    def test_an_unpinned_plan_releases_its_workers_when_it_ends(self, cars_env):
        source = ThreadRecordingSource(cars_env.web_source(), seconds=0.005)
        query = SelectionQuery.equals("body_style", "Convt")
        planner = QueryPlanner(cars_env.knowledge, PlannerConfig(k=10))
        before = set(threading.enumerate())
        with RetrievalEngine(source, RetrievalStats()) as engine:
            base = engine.run_base(
                PlannedQuery(query=query, kind=QueryKind.BASE, rank=0)
            )
            steps = planner.plan_selection(query, base, source=source).steps
            assert len(steps) > 1
            for __ in engine.stream(steps, drained=True):
                pass
            # The base call waited, so the plan fanned out on a pool of its
            # own, and that pool is gone while the engine is still open.
            assert any(t.name.startswith("qpiad-engine") for t in source.threads)
            assert _workers_started_since(before) == []
