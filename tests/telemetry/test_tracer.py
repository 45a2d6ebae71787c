"""Span recording: parentage, timings from an injectable clock, errors."""

import threading

import pytest

from repro.telemetry import Span, SpanKind, Tracer


class ManualClock:
    """A clock tests advance by hand."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture()
def tracer(clock) -> Tracer:
    return Tracer(clock=clock)


class TestSpanLifecycle:
    def test_start_records_clock_and_attributes(self, tracer, clock):
        clock.advance(5.0)
        span = tracer.start("base q", SpanKind.BASE_QUERY, query="q")
        assert span.started == 5.0
        assert span.attributes == {"query": "q"}
        assert not span.finished
        assert span.duration == 0.0

    def test_finish_records_duration(self, tracer, clock):
        span = tracer.start("base q", SpanKind.BASE_QUERY)
        clock.advance(2.5)
        tracer.finish(span)
        assert span.finished
        assert span.duration == 2.5
        assert span.status == "ok"

    def test_finish_with_error_marks_failed(self, tracer):
        span = tracer.start("base q", SpanKind.BASE_QUERY)
        tracer.finish(span, error=RuntimeError("boom"))
        assert span.failed
        assert span.status == "error"
        assert "boom" in span.error

    def test_set_attaches_attributes_after_start(self, tracer):
        span = tracer.start("base q", SpanKind.BASE_QUERY)
        span.set(tuples=7)
        assert span.attributes["tuples"] == 7


class TestParentage:
    def test_nested_starts_build_a_tree(self, tracer):
        root = tracer.start("retrieval", SpanKind.RETRIEVAL)
        child_a = tracer.start("base", SpanKind.BASE_QUERY)
        tracer.finish(child_a)
        child_b = tracer.start("rewritten", SpanKind.REWRITTEN_QUERY)
        tracer.finish(child_b)
        tracer.finish(root)

        assert root.parent_id is None
        assert child_a.parent_id == root.span_id
        assert child_b.parent_id == root.span_id
        assert tracer.roots() == (root,)
        assert tracer.children(root) == (child_a, child_b)

    def test_sequential_roots_do_not_nest(self, tracer):
        first = tracer.start("one", SpanKind.RETRIEVAL)
        tracer.finish(first)
        second = tracer.start("two", SpanKind.RETRIEVAL)
        tracer.finish(second)
        assert second.parent_id is None
        assert tracer.roots() == (first, second)

    def test_out_of_order_finish_is_tolerated(self, tracer):
        outer = tracer.start("outer", SpanKind.RETRIEVAL)
        inner = tracer.start("inner", SpanKind.BASE_QUERY)
        tracer.finish(outer)  # finished before its child
        tracer.finish(inner)
        late = tracer.start("late", SpanKind.RETRIEVAL)
        assert late.parent_id is None  # the stack recovered

    def test_by_kind_filters(self, tracer):
        tracer.start("retrieval", SpanKind.RETRIEVAL)
        tracer.start("base", SpanKind.BASE_QUERY)
        assert [s.name for s in tracer.by_kind(SpanKind.BASE_QUERY)] == ["base"]


def on_another_thread(work):
    """Run *work* on a fresh thread and return its result."""
    results = []
    thread = threading.Thread(target=lambda: results.append(work()))
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    return results[0]


class TestThreads:
    def test_each_thread_keeps_its_own_stack(self, tracer):
        root = tracer.start("retrieval", SpanKind.RETRIEVAL)

        def elsewhere():
            span = tracer.start("other", SpanKind.BASE_QUERY)
            tracer.finish(span)
            return span

        other = on_another_thread(elsewhere)
        child = tracer.start("child", SpanKind.BASE_QUERY)
        assert other.parent_id is None  # not adopted by another thread's span
        assert child.parent_id == root.span_id

    def test_current_is_the_calling_threads_innermost_span(self, tracer):
        assert tracer.current() is None
        root = tracer.start("retrieval", SpanKind.RETRIEVAL)
        assert tracer.current() is root
        assert on_another_thread(tracer.current) is None
        tracer.finish(root)
        assert tracer.current() is None

    def test_explicit_parent_nests_work_run_on_another_thread(self, tracer):
        root = tracer.start("retrieval", SpanKind.RETRIEVAL)
        parent = tracer.current()

        def call():
            span = tracer.start("rewritten", SpanKind.REWRITTEN_QUERY, parent=parent)
            inner = tracer.start("inner", SpanKind.BASE_QUERY)
            tracer.finish(inner)
            tracer.finish(span)
            return span, inner

        span, inner = on_another_thread(call)
        assert span.parent_id == root.span_id
        assert inner.parent_id == span.span_id
        with tracer.span("next", SpanKind.BASE_QUERY, parent=span) as adopted:
            pass
        assert adopted.parent_id == span.span_id

    def test_finish_on_another_thread_closes_the_span(self, tracer):
        root = tracer.start("retrieval", SpanKind.RETRIEVAL)
        on_another_thread(lambda: tracer.finish(root))
        assert root.finished
        assert tracer.current() is None
        assert tracer.start("late", SpanKind.RETRIEVAL).parent_id is None


class TestSpanContext:
    def test_context_manager_times_the_block(self, tracer, clock):
        with tracer.span("base", SpanKind.BASE_QUERY) as span:
            clock.advance(1.0)
        assert span.finished
        assert span.duration == 1.0

    def test_exception_marks_the_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("base", SpanKind.BASE_QUERY) as span:
                raise ValueError("lost connection")
        assert span.failed
        assert "lost connection" in span.error


class TestReset:
    def test_reset_clears_spans_and_ids(self, tracer):
        tracer.start("one", SpanKind.RETRIEVAL)
        tracer.reset()
        assert tracer.spans == ()
        fresh = tracer.start("two", SpanKind.RETRIEVAL)
        assert fresh.span_id == 1
        assert fresh.parent_id is None


def test_span_kinds_are_distinct():
    assert len(set(SpanKind.ALL)) == len(SpanKind.ALL)
    assert set(SpanKind.SOURCE_CALLS) <= set(SpanKind.ALL)


def test_span_is_a_plain_dataclass():
    span = Span(span_id=1, parent_id=None, name="n", kind=SpanKind.RETRIEVAL, started=0.0)
    assert not span.finished and not span.failed
