"""The stats-accounting invariant under fault injection.

The mediator bills itself for a source call *before* making it, so
whatever the injected weather — calls that fail fast, calls whose
response is lost after the source charged for the work, truncated
transfers — the mediator's ``queries_issued`` must equal the wrapped
source's own call log exactly.  A mediator that only counted successes
would under-report spend against rate-limited sources precisely when
things go wrong.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import SelectionQuery
from repro.telemetry import SpanKind, Telemetry

QUERY = SelectionQuery.equals("body_style", "Convt")
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


def _chaotic_source(
    env, seed: int, query_budget: "int | None" = None
) -> FaultInjectingSource:
    plan = FaultPlan(
        seed=seed,
        unavailable_rate=0.25,
        churn_rate=0.1,
        truncate_rate=0.1,
        spare_first=1,  # the base query must land
    )
    return FaultInjectingSource(env.web_source(query_budget=query_budget), plan)


class TestQueriesIssuedMatchesSourceCallLog:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariant_holds_under_fault_injection(self, cars_env, seed):
        source = _chaotic_source(cars_env, seed)
        result = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        assert result.stats.queries_issued == source.statistics.calls

    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariant_holds_for_the_streaming_interface(self, cars_env, seed):
        source = _chaotic_source(cars_env, seed)
        mediator = QpiadMediator(source, cars_env.knowledge, QpiadConfig(k=10))
        stats = RetrievalStats()
        list(mediator.iter_possible(QUERY, stats))
        assert stats.queries_issued == source.statistics.calls

    @pytest.mark.parametrize("query_budget", [None, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_drained_stream_reports_the_query_stats(self, cars_env, seed, query_budget):
        # Same seeded weather for both: failures, budget exhaustion and
        # duplicates must land in the stream's stats as in query()'s.
        config = QpiadConfig(k=10, max_concurrency=1)
        result = QpiadMediator(
            _chaotic_source(cars_env, seed, query_budget), cars_env.knowledge, config
        ).query(QUERY)
        stats = RetrievalStats()
        list(
            QpiadMediator(
                _chaotic_source(cars_env, seed, query_budget), cars_env.knowledge, config
            ).iter_possible(QUERY, stats)
        )
        assert stats == result.stats

    @pytest.mark.parametrize("query_budget", [None, 4])
    def test_failed_calls_are_the_difference_from_successes(
        self, cars_env, query_budget
    ):
        source = _chaotic_source(cars_env, seed=2, query_budget=query_budget)
        result = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        stats = source.statistics
        # Calls the inner source answered + calls that never reached it
        # (unavailable) + calls answered but lost in transit (churn) +
        # calls the inner source refused (here: its budget was spent).
        assert stats.calls == stats.healthy + stats.truncated + (
            stats.unavailable + stats.churned + stats.refused
        )
        assert result.stats.queries_issued == stats.calls
        assert len(result.stats.failures) == (
            stats.unavailable + stats.churned + stats.refused
        )

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_traced_chaos_run_spans_every_call(self, cars_env, seed):
        telemetry = Telemetry()
        source = _chaotic_source(cars_env, seed)
        QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), telemetry=telemetry
        ).query(QUERY)
        source_spans = [
            span
            for span in telemetry.tracer.spans
            if span.kind in SpanKind.SOURCE_CALLS
        ]
        assert len(source_spans) == source.statistics.calls
        assert telemetry.metrics.value("mediator.queries_issued") == (
            source.statistics.calls
        )
