"""The streaming join path: first-answer latency, ordering fixes, and the
base/component accounting split.

These pin the contracts the operator refactor introduced: candidates
stream as matches arrive (first answer after only the base retrievals,
before either side is rewritten),
the final ranked answers are independent of executor width and of which
component delivered a duplicate first, and issuance counters partition
exactly into base and component calls that agree with the sources' own
access logs.
"""

import threading
import time
from collections import Counter

import pytest

from repro.core import JoinConfig, JoinProcessor, JoinResult
from repro.core.joins import JoinedAnswer
from repro.errors import SourceUnavailableError
from repro.mining import KnowledgeBase
from repro.planner import QueryPlanner
from repro.query import JoinQuery, SelectionQuery
from repro.relational import Relation, is_null
from repro.sources import SourceDecorator


@pytest.fixture(scope="module")
def join_query():
    return JoinQuery(
        SelectionQuery.equals("model", "Grand Cherokee"),
        SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
        "model",
    )


def _processor(cars_env, complaints_env, width=1):
    """A processor plus the *exact* sources handed to it — the envs mint a
    fresh source per call, so accounting tests must hold these references."""
    left = cars_env.web_source()
    right = complaints_env.web_source()
    processor = JoinProcessor(
        left,
        right,
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
    )
    return processor, left, right


def _source_calls(source):
    return source.statistics.queries_answered + source.statistics.rejected_queries


@pytest.fixture()
def planning_calls(monkeypatch):
    """Calls to the planning a join does between its base and component
    calls: rewriting a side, and asking a classifier for posteriors."""
    calls: Counter = Counter()
    for owner, name in (
        (QueryPlanner, "rewrite_candidates"),
        (KnowledgeBase, "value_distributions"),
    ):
        def counted(self, *args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _fingerprint(result):
    return (
        [
            (a.left_row, a.right_row, a.join_value, a.confidence, a.certain)
            for a in result.answers
        ],
        result.pairs_considered,
        result.pairs_issued,
        result.base_queries_issued,
        result.component_queries_issued,
        result.stats.queries_issued,
    )


class TestConfidenceOrderIndependence:
    """Regression: a joined tuple's confidence must be the maximum over
    every component pair that retrieved it, not whichever pair happened
    to deliver it first."""

    def test_duplicate_arrival_order_does_not_matter(
        self, cars_env, complaints_env, join_query, monkeypatch
    ):
        processor, *_ = _processor(cars_env, complaints_env)
        low = JoinedAnswer(("l",), ("r",), "v", 0.3, False)
        high = JoinedAnswer(("l",), ("r",), "v", 0.8, False)
        for ordering in ([low, high], [high, low]):
            monkeypatch.setattr(
                processor,
                "stream_answers",
                lambda join, result=None, _o=tuple(ordering): iter(_o),
            )
            result = processor.query(join_query)
            assert [a.confidence for a in result.answers] == [0.8]

    def test_final_answers_are_the_candidate_maxima(
        self, cars_env, complaints_env, join_query
    ):
        processor, *_ = _processor(cars_env, complaints_env)
        best = {}
        candidates = 0
        for candidate in processor.stream_answers(join_query):
            candidates += 1
            key = (candidate.left_row, candidate.right_row)
            held = best.get(key)
            if held is None or (candidate.certain, candidate.confidence) > held:
                best[key] = (candidate.certain, candidate.confidence)
        result = _processor(cars_env, complaints_env)[0].query(join_query)
        assert candidates >= len(result.answers)
        assert {
            (a.left_row, a.right_row): (a.certain, a.confidence)
            for a in result.answers
        } == best


class TestAccountingSplit:
    """Regression: base retrievals used to be double-counted into the
    component figure; the two counters must now partition issuance."""

    def test_counters_partition_and_match_the_source_logs(
        self, cars_env, complaints_env, join_query
    ):
        processor, left, right = _processor(cars_env, complaints_env)
        result = processor.query(join_query)
        assert result.base_queries_issued == 2
        assert result.component_queries_issued > 0
        assert (
            result.base_queries_issued + result.component_queries_issued
            == result.stats.queries_issued
        )
        # Billed issuance agrees with the sources' own access logs.
        assert result.stats.queries_issued == _source_calls(left) + _source_calls(
            right
        )

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("failing", ["left", "right"])
    def test_a_failed_base_call_bills_every_call_as_a_base_call(
        self, cars_env, complaints_env, join_query, failing, width
    ):
        left = FailingBase(
            cars_env.web_source(), join_query.left if failing == "left" else None
        )
        right = FailingBase(
            complaints_env.web_source(), join_query.right if failing == "right" else None
        )
        processor = JoinProcessor(
            left,
            right,
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
        )
        result = JoinResult(query=join_query)
        with pytest.raises(SourceUnavailableError):
            for __ in processor.stream_answers(join_query, result=result):
                pass
        # Serially a failed left base call ends the join before the right
        # one; wider, both base calls were on the wire.
        calls = left.calls + right.calls
        assert calls == (1 if width == 1 and failing == "left" else 2)
        assert result.stats.queries_issued == calls
        assert result.base_queries_issued == calls
        assert result.component_queries_issued == 0


class FailingBase(SourceDecorator):
    """Logs every call, and fails the call of *fails* (a base query, or
    ``None`` for none) as a source that is down would."""

    def __init__(self, inner, fails):
        super().__init__(inner)
        self.fails = fails
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, query):
        with self._lock:
            self.calls += 1
        if query == self.fails:
            raise SourceUnavailableError(f"{self.name} is down")
        return super().execute(query)


class TestWidthParity:
    """Stream in the middle, rank at the edge: the final answer list and
    every counter are bit-identical at any executor width."""

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_concurrent_widths_match_serial(
        self, cars_env, complaints_env, join_query, width
    ):
        serial = _processor(cars_env, complaints_env, width=1)[0].query(join_query)
        wide = _processor(cars_env, complaints_env, width=width)[0].query(join_query)
        assert _fingerprint(wide) == _fingerprint(serial)


class TestFirstAnswerLatency:
    @pytest.mark.parametrize("width", [1, 4])
    def test_first_candidate_costs_only_the_base_retrievals(
        self, cars_env, complaints_env, join_query, width
    ):
        processor, left, right = _processor(cars_env, complaints_env, width=width)
        stream = processor.stream_answers(join_query)
        first = next(stream)
        # Base×base answers are pushed into the tree before any rewritten
        # component is issued, so the first candidate arrives after
        # exactly the two base calls, however wide the executor.
        assert first.certain
        assert _source_calls(left) + _source_calls(right) == 2
        stream.close()

    @pytest.mark.parametrize("width", [1, 2])
    def test_first_candidate_comes_before_any_planning(
        self, cars_env, complaints_env, join_query, planning_calls, width
    ):
        processor, left, right = _processor(cars_env, complaints_env, width=width)
        stream = processor.stream_answers(join_query)
        first = next(stream)
        # The complete pair needs no rewriting: its base×base answers are
        # pushed as soon as the two base calls return, before either side
        # is rewritten or any posterior is asked for.
        assert first.certain
        assert _source_calls(left) + _source_calls(right) == 2
        assert planning_calls["rewrite_candidates"] == 0
        assert planning_calls["value_distributions"] == 0
        stream.close()

    @pytest.mark.parametrize("width", [1, 2])
    def test_stream_closed_after_first_candidate_plans_nothing(
        self, cars_env, complaints_env, join_query, planning_calls, width
    ):
        processor, left, right = _processor(cars_env, complaints_env, width=width)
        stream = processor.stream_answers(join_query)
        next(stream)
        stream.close()
        assert planning_calls["rewrite_candidates"] == 0
        assert _source_calls(left) + _source_calls(right) == 2
        # Drained instead, the same join rewrites both sides.
        processor.query(join_query)
        assert planning_calls["rewrite_candidates"] == 2

    def test_abandoned_stream_spends_no_further_queries(
        self, cars_env, complaints_env, join_query
    ):
        processor, left, right = _processor(cars_env, complaints_env)
        stream = processor.stream_answers(join_query)
        next(stream)
        stream.close()
        spent = _source_calls(left) + _source_calls(right)
        assert spent == 2

    def test_first_answer_histogram_is_observed(
        self, cars_env, complaints_env, join_query
    ):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        left = cars_env.web_source()
        right = complaints_env.web_source()
        processor = JoinProcessor(
            left,
            right,
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10),
            telemetry=telemetry,
        )
        processor.query(join_query)
        histogram = telemetry.metrics.histogram(
            "mediator.time_to_first_answer_seconds"
        )
        assert histogram.count == 1


class ComponentSignal(SourceDecorator):
    """Sets *entered* as soon as a call other than the side's base query
    enters ``execute``."""

    def __init__(self, inner, base, entered):
        super().__init__(inner)
        self.base = base
        self.entered = entered

    def execute(self, query):
        if query != self.base:
            self.entered.set()
        return super().execute(query)


class TestComponentsOverlapTheBasePush:
    """After the first answer the join plans and starts its component
    calls, and only then pushes the rest of the base rows: at a width
    above 1 the components wait on the sources while base×base answers
    still stream; the serial executor runs them only when read."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_components_are_on_the_wire_by_the_second_candidate(
        self, cars_env, complaints_env, join_query, width
    ):
        entered = threading.Event()
        left, right = cars_env.web_source(), complaints_env.web_source()
        processor = JoinProcessor(
            ComponentSignal(left, join_query.left, entered),
            ComponentSignal(right, join_query.right, entered),
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
        )
        result = JoinResult(query=join_query)
        stream = processor.stream_answers(join_query, result=result)
        try:
            next(stream)
            # Component rows come only after the last base row, so the
            # second candidate is still a base×base one.
            next(stream)
            overlapped = entered.wait(5) if width > 1 else entered.is_set()
        finally:
            stream.close()
        # Closed early, the join has spent at most one window of component
        # calls per source, each of them billed.
        if width == 1:
            assert not overlapped
            assert result.component_queries_issued == 0
        else:
            assert overlapped
            components = [_source_calls(source) - 1 for source in (left, right)]
            assert all(calls <= width for calls in components)
            assert 1 <= result.component_queries_issued == sum(components) <= 2 * width


class InFlight:
    """Calls in flight now and at their peak, per key."""

    def __init__(self):
        self._lock = threading.Lock()
        self._now: Counter = Counter()
        self.peak: Counter = Counter()

    def enter(self, *keys):
        with self._lock:
            for key in keys:
                self._now[key] += 1
                self.peak[key] = max(self.peak[key], self._now[key])

    def leave(self, *keys):
        with self._lock:
            for key in keys:
                self._now[key] -= 1


class SleepingSource(SourceDecorator):
    """Waits out a round trip in every call, counting the calls in flight
    at its backend (every wrapper of one ``name``) and at the mediator."""

    def __init__(self, inner, in_flight, seconds=0.03):
        super().__init__(inner)
        self.in_flight = in_flight
        self.seconds = seconds

    def execute(self, query):
        keys = (self.name, "mediator")
        self.in_flight.enter(*keys)
        try:
            time.sleep(self.seconds)
            return super().execute(query)
        finally:
            self.in_flight.leave(*keys)


class TestPerSourceWidth:
    """A join's width is a limit per source: each source keeps up to
    ``max_concurrency`` calls in flight, and the two sources overlap."""

    @pytest.mark.parametrize("limit", [1, 2])
    def test_each_source_peaks_at_the_limit(
        self, cars_env, complaints_env, join_query, limit
    ):
        in_flight = InFlight()
        processor = JoinProcessor(
            SleepingSource(cars_env.web_source(), in_flight),
            SleepingSource(complaints_env.web_source(), in_flight),
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=limit),
        )
        result = processor.query(join_query)
        # Enough calls on each side to fill a window of two.
        assert result.component_queries_issued >= 4
        assert in_flight.peak["cars"] == limit
        assert in_flight.peak["complaints"] == limit
        if limit == 1:
            assert in_flight.peak["mediator"] == 1
        else:
            # The two sources' calls overlap.
            assert in_flight.peak["mediator"] > limit

    def test_a_self_join_keeps_its_backend_within_the_limit(self, cars_env):
        in_flight = InFlight()
        join = JoinQuery(
            SelectionQuery.equals("model", "Grand Cherokee"),
            SelectionQuery.equals("body_style", "Convt"),
            "model",
        )
        # Two wrappers of two sources named alike: one backend.
        processor = JoinProcessor(
            SleepingSource(cars_env.web_source(), in_flight),
            SleepingSource(cars_env.web_source(), in_flight),
            cars_env.knowledge,
            cars_env.knowledge,
            JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=2),
        )
        result = processor.query(join)
        assert result.component_queries_issued >= 4
        assert in_flight.peak["cars"] == 2


class TestBaseNullFill:
    """Once the first answer is out, a side's remaining NULL join values
    are completed in one classifier batch; the rows pushed before it are
    completed one at a time, so no classifier call precedes the first
    answer."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_rows_after_the_first_candidate_are_completed_in_one_batch(
        self, cars_env, complaints_env, join_query, monkeypatch, width
    ):
        serial = _processor(cars_env, complaints_env, width=1)[0].query(join_query)
        right_base = complaints_env.web_source().execute(join_query.right)
        model = right_base.schema.index_of("model")
        null_rows = {row for row in right_base if is_null(row[model])}
        batches: list[list[tuple]] = []
        original = KnowledgeBase.completions

        def recorded(self, attribute, evidences, method=None):
            batches.append([tuple(evidence.values()) for evidence in evidences])
            return original(self, attribute, evidences, method)

        monkeypatch.setattr(KnowledgeBase, "completions", recorded)
        processor = _processor(cars_env, complaints_env, width=width)[0]
        stream = processor.stream_answers(join_query)
        candidates = [next(stream)]
        before_first = len(batches)
        candidates += stream
        # Component rows are completed one at a time and are never base
        # rows, so a batch holding a NULL-model base row is a base batch.
        base_batches = [
            batch for batch in batches[before_first:] if set(batch) & null_rows
        ]
        assert len(base_batches) == 1
        [batch] = base_batches
        assert len(batch) >= 2
        assert set(batch) <= null_rows
        # Every NULL-model base row is completed exactly once.
        assert sum(row in null_rows for batch in batches for row in batch) == sum(
            is_null(row[model]) for row in right_base
        )
        best: dict = {}
        for candidate in candidates:
            key = (candidate.left_row, candidate.right_row)
            best[key] = max(best.get(key, (False, 0.0)), (candidate.certain, candidate.confidence))
        assert best == {
            (a.left_row, a.right_row): (a.certain, a.confidence) for a in serial.answers
        }


class TestCompleteSidesBuiltOnce:
    def test_each_base_set_is_counted_once_per_join(
        self, cars_env, complaints_env, join_query, monkeypatch
    ):
        counted: list[int] = []
        original = Relation.value_counts

        def value_counts(self, attribute):
            counted.append(len(self))
            return original(self, attribute)

        monkeypatch.setattr(Relation, "value_counts", value_counts)
        processor = _processor(cars_env, complaints_env)[0]
        processor.query(join_query)
        # One empirical join-value distribution per side's complete query.
        assert len(counted) == 2
