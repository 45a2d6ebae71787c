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

from collections import Counter

import pytest

from repro.core import JoinConfig, JoinProcessor
from repro.core.joins import JoinedAnswer
from repro.mining import KnowledgeBase
from repro.planner import QueryPlanner
from repro.query import JoinQuery, SelectionQuery


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
