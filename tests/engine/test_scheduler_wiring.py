"""The engine ↔ scheduler contract: routing, billing, failure absorption."""

import threading

from repro.core import JoinConfig, JoinProcessor, QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.engine import FailureKind, PlannedQuery, QueryKind
from repro.engine.engine import RetrievalEngine
from repro.errors import AdmissionRejectedError
from repro.query import JoinQuery, SelectionQuery
from repro.relational import Relation, Schema
from repro.resilience import SourcePolicy, SourceScheduler, scheduler_scope
from repro.sources import AutonomousSource, SourceDecorator

QUERY = SelectionQuery.equals("body_style", "Convt")


def make_scheduler(**policy):
    return SourceScheduler(SourcePolicy(**policy))


class TestMediatorRouting:
    def test_every_source_call_passes_through_the_scheduler(self, cars_env):
        scheduler = make_scheduler()
        source = cars_env.web_source()
        mediator = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10), scheduler=scheduler
        )
        result = mediator.query(QUERY)
        calls = scheduler.metrics.value("scheduler.calls")
        source_calls = (
            source.statistics.queries_answered + source.statistics.rejected_queries
        )
        assert calls == result.stats.queries_issued
        assert calls == source_calls

    def test_answers_are_bit_identical_with_and_without_the_scheduler(
        self, cars_env
    ):
        def run(scheduler):
            return QpiadMediator(
                cars_env.web_source(),
                cars_env.knowledge,
                QpiadConfig(k=10),
                scheduler=scheduler,
            ).query(QUERY)

        plain = run(None)
        scheduled = run(make_scheduler(rate_per_second=10_000, burst=64))
        assert list(scheduled.certain) == list(plain.certain)
        assert [(a.row, a.confidence) for a in scheduled.ranked] == [
            (a.row, a.confidence) for a in plain.ranked
        ]
        assert scheduled.stats.queries_issued == plain.stats.queries_issued

    def test_installed_scheduler_is_the_engine_default(self, cars_env):
        scheduler = make_scheduler()
        with scheduler_scope(scheduler):
            result = QpiadMediator(
                cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=5)
            ).query(QUERY)
        assert scheduler.metrics.value("scheduler.calls") == (
            result.stats.queries_issued
        )

    def test_accounting_invariant_holds_at_every_width(self, cars_env):
        for width in (1, 2, 4, 8):
            scheduler = make_scheduler(max_concurrent=4)
            source = cars_env.web_source()
            result = QpiadMediator(
                source,
                cars_env.knowledge,
                QpiadConfig(k=10, max_concurrency=width),
                scheduler=scheduler,
            ).query(QUERY)
            source_calls = (
                source.statistics.queries_answered
                + source.statistics.rejected_queries
            )
            assert result.stats.queries_issued == source_calls


class HeldUntilCopy(SourceDecorator):
    """Holds each call of *held* until a second copy of it arrives or 2 s
    pass, so two copies in flight at once overlap at the source instead of
    being left to thread timing."""

    def __init__(self, inner, held):
        super().__init__(inner)
        self._held = held
        self._copies = 0
        self._copy_arrived = threading.Event()
        self._lock = threading.Lock()

    def execute(self, query):
        if query == self._held:
            with self._lock:
                self._copies += 1
                if self._copies == 2:
                    self._copy_arrived.set()
            self._copy_arrived.wait(timeout=2.0)
        return self.inner.execute(query)


class TestSelfJoinBilling:
    """Two copies of one call in flight each reach the source and are
    billed once: a scheduler never splits billing from the call log."""

    JOIN = JoinQuery(QUERY, QUERY, "model")

    def test_queries_issued_equals_the_source_call_log(self, cars_env):
        def answers(result):
            return [
                (a.left_row, a.right_row, a.certain, a.confidence)
                for a in result.answers
            ]

        def join(source):
            return JoinProcessor(
                source,
                source,
                cars_env.knowledge,
                cars_env.knowledge,
                JoinConfig(max_concurrency=2),
            ).query(self.JOIN)

        plain = join(cars_env.web_source())
        backend = cars_env.web_source()
        with scheduler_scope(SourceScheduler()):
            scheduled = join(HeldUntilCopy(backend, QUERY))
        # Width 2 puts both base calls in flight at once; each is billed.
        assert scheduled.base_queries_issued == 2
        source_calls = (
            backend.statistics.queries_answered + backend.statistics.rejected_queries
        )
        assert scheduled.stats.queries_issued == source_calls
        assert answers(scheduled) == answers(plain)


def engine_for(source, stats=None, scheduler=None, strict=False):
    return RetrievalEngine(
        source,
        stats if stats is not None else RetrievalStats(),
        strict=strict,
        scheduler=scheduler,
    )


def backend():
    relation = Relation(
        Schema.of("make", "body_style"), [("BMW", "Convt"), ("Audi", "Sedan")]
    )
    return AutonomousSource("cars", relation)


def step(query, rank=0, kind=QueryKind.REWRITTEN):
    return PlannedQuery(query=query, kind=kind, rank=rank)


class TestFailureAbsorption:
    def test_admission_rejection_is_absorbed_and_recorded(self):
        stats = RetrievalStats()
        engine = engine_for(backend(), stats=stats)
        outcome = engine._absorb(
            step(QUERY), AdmissionRejectedError("queue full")
        )
        assert outcome == "continue"
        assert engine.degraded
        assert [f.kind for f in stats.failures] == [FailureKind.ADMISSION_REJECTED]

    def test_a_strict_engine_records_then_raises(self):
        stats = RetrievalStats()
        engine = engine_for(backend(), stats=stats, strict=True)
        outcome = engine._absorb(step(QUERY), AdmissionRejectedError("shed"))
        assert outcome == "raise"
        assert engine.degraded
        assert [f.kind for f in stats.failures] == [FailureKind.ADMISSION_REJECTED]
