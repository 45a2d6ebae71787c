"""Execution-strategy parity: the executor must never change the answer.

The determinism pin of the plan/executor split: on clean (fault-free)
workloads the concurrent executor returns *exactly* what the serial one
does — same certain answers, same possible answers in the same order,
same confidences, same cost accounting — and the streaming interface
(``iter_possible``) agrees with the eager one (``query``) under both.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.evaluation import selection_workload
from tests.workloads import multi_attribute_workload
from repro.query import SelectionQuery

WIDTHS = [1, 4]


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
        "rewritten_skipped": result.stats.rewritten_skipped,
        "degraded": result.degraded,
    }


class TestQueryParity:
    def test_concurrent_equals_serial_on_workload(self, cars_env):
        source = cars_env.web_source()
        for query in _workload(cars_env):
            outcomes = [
                _fingerprint(
                    QpiadMediator(
                        source,
                        cars_env.knowledge,
                        QpiadConfig(k=10, max_concurrency=width),
                    ).query(query)
                )
                for width in (1, 2, 6)
            ]
            assert outcomes[0] == outcomes[1] == outcomes[2], query

    def test_parity_holds_on_census(self, census_env):
        source = census_env.web_source()
        for query in selection_workload(census_env, "occupation", 2, seed=3):
            serial, wide = (
                _fingerprint(
                    QpiadMediator(
                        source,
                        census_env.knowledge,
                        QpiadConfig(k=8, max_concurrency=width),
                    ).query(query)
                )
                for width in (1, 5)
            )
            assert serial == wide, query


class TestStreamParity:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_iter_possible_matches_query(self, cars_env, width):
        source = cars_env.web_source()
        # The mileage query's plan retrieves a row twice: the drained
        # stream must count the discarded duplicate as query() does.
        for query in _workload(cars_env) + [SelectionQuery.equals("mileage", 47000)]:
            config = QpiadConfig(k=10, max_concurrency=width)
            eager = QpiadMediator(source, cars_env.knowledge, config).query(query)
            stats = RetrievalStats()
            streamed = list(
                QpiadMediator(source, cars_env.knowledge, config).iter_possible(
                    query, stats
                )
            )
            assert [(a.row, a.confidence) for a in streamed] == [
                (a.row, a.confidence) for a in eager.ranked
            ]
            assert stats == eager.stats, query

    def test_abandoned_stream_spends_less(self, cars_env):
        # Laziness survives the refactor: stopping early must not cost the
        # whole plan, serial or concurrent (concurrent may prefetch up to
        # its window).
        source = cars_env.web_source()
        query = _workload(cars_env)[0]
        full = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(query)
        assert full.stats.queries_issued > 2  # a plan worth abandoning
        for width in WIDTHS:
            stats = RetrievalStats()
            stream = QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(k=10, max_concurrency=width)
            ).iter_possible(query, stats)
            next(stream)
            stream.close()
            assert stats.queries_issued <= 2 + width
