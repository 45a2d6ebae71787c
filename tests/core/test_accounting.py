"""Retrieval cost accounting (the PR-3 bugfix regressions).

Two invariants pinned here:

* ``min_confidence`` is a *plan-time* gate — below-threshold rewritten
  queries are never issued, so they spend no budget and show up in
  ``rewritten_skipped`` instead of being retrieved and discarded;
* ``queries_issued`` counts every call put on the wire *before* it runs,
  so it agrees with the source's own access statistics even when calls
  fail (budget exhaustion, capability rejection, transient faults — the
  chaos-side half of this invariant lives in
  ``tests/faults/test_accounting_invariant.py``).
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.query import SelectionQuery
from repro.sources import AutonomousSource, SourceCapabilities

QUERY = SelectionQuery.equals("body_style", "Convt")


@pytest.fixture(scope="module")
def unfiltered(cars_env):
    """One retrieval with no confidence threshold, as the reference run."""
    return QpiadMediator(
        cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
    ).query(QUERY)


def _threshold_between(result) -> float:
    """A min_confidence value that splits the reference run's confidences."""
    confidences = sorted({answer.confidence for answer in result.ranked})
    assert len(confidences) >= 2, "reference run must span several confidences"
    return (confidences[0] + confidences[-1]) / 2


class TestPlanTimeConfidenceGate:
    def test_below_threshold_rewritings_are_never_issued(self, cars_env, unfiltered):
        threshold = _threshold_between(unfiltered)
        source = cars_env.web_source()
        result = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, min_confidence=threshold),
        ).query(QUERY)

        assert result.stats.rewritten_skipped > 0
        # Skipped rewritings spent nothing: the source's log agrees.
        assert result.stats.queries_issued < unfiltered.stats.queries_issued
        assert result.stats.queries_issued == source.statistics.queries_answered

    def test_gate_returns_the_same_answers_as_post_filtering(
        self, cars_env, unfiltered
    ):
        threshold = _threshold_between(unfiltered)
        result = QpiadMediator(
            cars_env.web_source(),
            cars_env.knowledge,
            QpiadConfig(k=10, min_confidence=threshold),
        ).query(QUERY)

        assert all(answer.confidence >= threshold for answer in result.ranked)
        expected = [a.row for a in unfiltered.ranked if a.confidence >= threshold]
        assert [a.row for a in result.ranked] == expected

    def test_gate_applies_to_the_streaming_interface(self, cars_env, unfiltered):
        threshold = _threshold_between(unfiltered)
        stats = RetrievalStats()
        mediator = QpiadMediator(
            cars_env.web_source(),
            cars_env.knowledge,
            QpiadConfig(k=10, min_confidence=threshold),
        )
        answers = list(mediator.iter_possible(QUERY, stats))
        assert all(answer.confidence >= threshold for answer in answers)
        assert stats.rewritten_skipped > 0


class TestIssuanceCountedBeforeTheCall:
    def test_matches_source_log_on_a_clean_run(self, cars_env):
        source = cars_env.web_source()
        result = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        assert result.stats.queries_issued == source.statistics.queries_answered

    def test_budget_exhausted_call_is_still_counted(self, cars_env):
        budget = 3
        source = AutonomousSource(
            cars_env.name,
            cars_env.test,
            SourceCapabilities.web_form(query_budget=budget),
        )
        result = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        # The call that hit the exhausted budget went on the wire too:
        # budget answered calls plus the one rejection.
        assert source.statistics.queries_answered == budget
        assert result.stats.queries_issued == budget + 1

    def test_streaming_interface_reports_the_same_accounting(self, cars_env):
        source = cars_env.web_source()
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        stats = RetrievalStats()
        list(mediator.iter_possible(QUERY, stats))
        assert stats.queries_issued == source.statistics.queries_answered
        assert stats.queries_issued == 1 + stats.rewritten_issued

    def test_partially_consumed_stream_counts_only_issued_calls(self, cars_env):
        source = cars_env.web_source()
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        stats = RetrievalStats()
        next(mediator.iter_possible(QUERY, stats))  # first answer only
        assert stats.queries_issued == source.statistics.queries_answered
        assert stats.queries_issued < 11  # far short of base + K
