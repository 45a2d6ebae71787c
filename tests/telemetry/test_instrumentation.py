"""Telemetry threaded through the mediator stack and the source wrappers.

The tentpole property: **every source call in a traced retrieval appears
as a span** — the base query and each rewritten query — and the
``mediator.*`` counters agree with the retrieval's own
:class:`~repro.core.results.RetrievalStats`.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.errors import SourceUnavailableError
from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, CachingSource
from repro.telemetry import SpanKind, Telemetry
from tests.engine.test_width_rule import sleeping

QUERY = SelectionQuery.equals("body_style", "Convt")


class TestMediatorSpans:
    @pytest.fixture()
    def traced(self, cars_env):
        telemetry = Telemetry()
        mediator = QpiadMediator(
            cars_env.web_source(),
            cars_env.knowledge,
            QpiadConfig(k=10),
            telemetry=telemetry,
        )
        return mediator.query(QUERY), telemetry

    def test_every_source_call_appears_as_a_span(self, traced):
        result, telemetry = traced
        source_spans = [
            span
            for span in telemetry.tracer.spans
            if span.kind in SpanKind.SOURCE_CALLS
        ]
        assert len(source_spans) == result.stats.queries_issued

    def test_span_tree_has_one_retrieval_root(self, traced):
        result, telemetry = traced
        roots = telemetry.tracer.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.kind == SpanKind.RETRIEVAL
        assert root.attributes["certain"] == len(result.certain)
        assert root.attributes["queries_issued"] == result.stats.queries_issued
        # Every child of the retrieval root is either the planning stage
        # or a source call.
        for span in telemetry.tracer.children(root):
            assert span.kind in SpanKind.SOURCE_CALLS + (SpanKind.PLAN,)

    def test_spans_carry_query_and_tuple_attributes(self, traced):
        __, telemetry = traced
        base = telemetry.tracer.by_kind(SpanKind.BASE_QUERY)[0]
        assert "body_style" in base.attributes["query"]
        assert base.attributes["tuples"] >= 0
        for span in telemetry.tracer.by_kind(SpanKind.REWRITTEN_QUERY):
            assert 0.0 <= span.attributes["precision"] <= 1.0

    def test_counters_match_retrieval_stats(self, traced):
        result, telemetry = traced
        metrics = telemetry.metrics
        assert metrics.value("mediator.queries_issued") == result.stats.queries_issued
        assert metrics.value("mediator.tuples_retrieved") == result.stats.tuples_retrieved
        assert metrics.value("mediator.retrievals") == 1
        assert metrics.value("mediator.answers_certain") == len(result.certain)
        assert metrics.value("mediator.answers_ranked") == len(result.ranked)

    def test_latency_histograms_recorded_per_kind(self, traced):
        result, telemetry = traced
        histogram = telemetry.metrics.histogram("span.rewritten-query.seconds")
        assert histogram.count == result.stats.rewritten_issued

    def test_disabled_telemetry_changes_no_answers(self, cars_env, traced):
        traced_result, __ = traced
        bare = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        assert list(bare.certain) == list(traced_result.certain)
        assert [a.row for a in bare.ranked] == [a.row for a in traced_result.ranked]
        assert bare.stats.queries_issued == traced_result.stats.queries_issued


class TestParentageUnderConcurrency:
    @pytest.mark.parametrize(
        "width, remote",
        [(1, False), (8, False), (None, True)],
        ids=["width-1", "width-8", "default-on-a-sleeping-source"],
    )
    def test_every_rewritten_span_is_a_child_of_the_retrieval_root(
        self, cars_env, width, remote
    ):
        source = sleeping(cars_env) if remote else cars_env.web_source()
        telemetry = Telemetry()
        result = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, max_concurrency=width),
            telemetry=telemetry,
        ).query(QUERY)

        (root,) = telemetry.tracer.roots()
        rewritten = telemetry.tracer.by_kind(SpanKind.REWRITTEN_QUERY)
        assert len(rewritten) == result.stats.rewritten_issued > 1
        assert {span.parent_id for span in rewritten} == {root.span_id}
        if remote:
            assert source.peak_in_flight > 1  # the default did fan out


class TestFailedCallsAreSpanned:
    def test_faulted_calls_still_produce_spans(self, cars_env):
        telemetry = Telemetry()
        plan = FaultPlan(seed=3, unavailable_rate=0.4, spare_first=1)
        source = FaultInjectingSource(
            cars_env.web_source(), plan, telemetry=telemetry
        )
        result = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), telemetry=telemetry
        ).query(QUERY)

        source_spans = [
            span
            for span in telemetry.tracer.spans
            if span.kind in SpanKind.SOURCE_CALLS
        ]
        assert len(source_spans) == result.stats.queries_issued
        failed = [span for span in source_spans if span.failed]
        assert len(failed) == len(result.stats.failures)
        assert telemetry.metrics.value("fault.injected") == (
            source.statistics.faults_injected
        )
        assert telemetry.metrics.value("mediator.source_failures") == len(failed)


class TestWrapperCounters:
    @pytest.fixture()
    def backend(self, car_fragment):
        return AutonomousSource("cars", car_fragment)

    def test_cache_counters(self, backend):
        telemetry = Telemetry()
        source = CachingSource(backend, capacity=1, telemetry=telemetry)
        honda = SelectionQuery.equals("make", "Honda")
        bmw = SelectionQuery.equals("make", "BMW")
        source.execute(honda)
        source.execute(honda)  # hit
        source.execute(bmw)  # miss + eviction of honda
        assert telemetry.metrics.value("cache.hits") == source.statistics.hits == 1
        assert telemetry.metrics.value("cache.misses") == source.statistics.misses == 2
        assert (
            telemetry.metrics.value("cache.evictions")
            == source.statistics.evictions
            == 1
        )

    def test_fault_kind_counters(self, backend):
        telemetry = Telemetry()
        plan = FaultPlan(seed=5, unavailable_rate=1.0)
        source = FaultInjectingSource(backend, plan, telemetry=telemetry)
        with pytest.raises(SourceUnavailableError):
            source.execute(SelectionQuery.equals("make", "Honda"))
        assert telemetry.metrics.value("fault.injected") == 1
        assert telemetry.metrics.value("fault.unavailable") == 1

