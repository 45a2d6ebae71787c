"""The engine's incremental tuple path (``stream_tuples``).

Contracts: every row of every completed call is yielded exactly once,
tagged with its step; rows of a fast call are never held behind a slow
earlier call (completion order); billing and failure absorption are
identical to the plan-order ``stream``.
"""

import threading

import pytest

from repro.core.results import RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import SourceUnavailableError
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema

SCHEMA = Schema.of("make", "body_style")


def _query(value):
    return SelectionQuery.equals("make", value)


class MappingSource:
    """Returns canned rows per query; optionally gates queries on events."""

    name = "canned"

    def __init__(self, answers, gates=None):
        self.answers = answers
        self.gates = gates or {}
        self.calls = []
        self.lock = threading.Lock()

    def execute(self, query):
        gate = self.gates.get(query)
        if gate is not None:
            assert gate.wait(10)
        with self.lock:
            self.calls.append(query)
        if isinstance(self.answers[query], Exception):
            raise self.answers[query]
        return Relation(SCHEMA, self.answers[query])


def _plan(queries, kind=QueryKind.REWRITTEN):
    return [
        PlannedQuery(query=query, kind=kind, rank=rank, estimated_precision=0.5)
        for rank, query in enumerate(queries)
    ]


def _engine(source, stats=None, **options):
    return RetrievalEngine(
        source, stats if stats is not None else RetrievalStats(), **options
    )


class TestStreamTuples:
    def test_yields_each_row_tagged_with_its_step(self):
        source = MappingSource(
            {
                _query("BMW"): [("BMW", "Convt"), ("BMW", "Sedan")],
                _query("Audi"): [("Audi", "Coupe")],
            }
        )
        stats = RetrievalStats()
        plan = _plan([_query("BMW"), _query("Audi")])
        seen = [
            (step.rank, row)
            for step, row in _engine(source, stats=stats).stream_tuples(plan)
        ]
        assert sorted(seen) == [
            (0, ("BMW", "Convt")),
            (0, ("BMW", "Sedan")),
            (1, ("Audi", "Coupe")),
        ]

    def test_serial_stream_is_plan_ordered(self):
        source = MappingSource(
            {_query(str(i)): [(str(i), "x")] for i in range(6)}
        )
        plan = _plan([_query(str(i)) for i in range(6)])
        ranks = [step.rank for step, __ in _engine(source).stream_tuples(plan)]
        assert ranks == list(range(6))

    def test_fast_call_is_not_held_behind_slow_one(self):
        gate = threading.Event()
        slow, fast = _query("slow"), _query("fast")

        class Gated(MappingSource):
            def execute(self, query):
                if query is slow:
                    assert gate.wait(10)
                return super().execute(query)

        source = Gated({slow: [("slow", "x")], fast: [("fast", "y")]})
        rows = []
        engine = _engine(source, max_concurrency=2)
        for __, row in engine.stream_tuples(_plan([slow, fast])):
            rows.append(row)
            # The slow call may only finish once the fast call's row has
            # been *yielded*, forcing the overtaking order.
            gate.set()
        # Plan order would be slow-then-fast; completion order is not.
        assert rows == [("fast", "y"), ("slow", "x")]

    def test_billing_matches_the_source_call_log(self):
        source = MappingSource(
            {_query(str(i)): [(str(i), "x")] for i in range(5)}
        )
        stats = RetrievalStats()
        plan = _plan([_query(str(i)) for i in range(5)])
        list(_engine(source, stats=stats).stream_tuples(plan))
        assert stats.queries_issued == len(source.calls) == 5
        assert stats.rewritten_issued == 5
        assert stats.tuples_retrieved == 5

    def test_transient_failures_are_absorbed_and_billed(self):
        source = MappingSource(
            {
                _query("ok"): [("ok", "x")],
                _query("down"): SourceUnavailableError("down"),
            }
        )
        stats = RetrievalStats()
        engine = _engine(source, stats=stats)
        rows = [row for __, row in engine.stream_tuples(_plan([_query("down"), _query("ok")]))]
        assert rows == [("ok", "x")]
        # The failed call is still billed: issuance is counted up front.
        assert stats.queries_issued == 2
        assert engine.degraded

    def test_strict_policy_raises_on_failure(self):
        source = MappingSource({_query("down"): SourceUnavailableError("down")})
        engine = _engine(source, strict=True, max_concurrency=1)
        with pytest.raises(SourceUnavailableError):
            list(engine.stream_tuples(_plan([_query("down")])))

    def test_empty_plan_is_empty_stream(self):
        source = MappingSource({})
        assert list(_engine(source).stream_tuples([])) == []
