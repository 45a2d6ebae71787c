"""The engine ↔ scheduler contract: routing, billing, failure absorption."""

import threading

from repro.core import QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.engine import FailureKind, PlannedQuery, QueryKind
from repro.engine.engine import RetrievalEngine
from repro.errors import AdmissionRejectedError
from repro.query import SelectionQuery
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


class FollowerWatch:
    """Scheduler telemetry that opens :attr:`gate` once enough dedup
    followers have joined an in-flight call."""

    def __init__(self, followers):
        self.gate = threading.Event()
        self._followers = followers
        self._joined = 0
        self._lock = threading.Lock()

    def count(self, name, amount=1):
        if name == "scheduler.dedup_hits":
            with self._lock:
                self._joined += amount
                if self._joined >= self._followers:
                    self.gate.set()

    def observe(self, name, value):
        pass


class GatedBaseSource(SourceDecorator):
    """Holds each wire call of *base* until *gate* opens, counting them."""

    def __init__(self, inner, base, gate):
        super().__init__(inner)
        self._base = base
        self._gate = gate
        self._lock = threading.Lock()
        self.base_calls = 0

    def execute(self, query):
        if query == self._base:
            with self._lock:
                self.base_calls += 1
            self._gate.wait(timeout=10)
        return self.inner.execute(query)


class TestSharedBaseCall:
    """Mediators firing one query through one scheduler share its wire call."""

    MEDIATORS = 6

    def test_the_base_query_reaches_the_wire_once(self, cars_env):
        def answers(result):
            return list(result.certain), [(a.row, a.confidence) for a in result.ranked]

        watch = FollowerWatch(followers=self.MEDIATORS - 1)
        scheduler = SourceScheduler(SourcePolicy(dedup=True), telemetry=watch)
        source = GatedBaseSource(cars_env.web_source(), QUERY, watch.gate)
        results: dict = {}

        def run(index):
            results[index] = QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(k=10), scheduler=scheduler
            ).query(QUERY)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(self.MEDIATORS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # The leader's base call waited until every other mediator had
        # joined it, so five followers shared one wire call.
        assert watch.gate.is_set()
        assert source.base_calls == 1
        plain = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
        ).query(QUERY)
        assert len(results) == self.MEDIATORS
        for result in results.values():
            assert answers(result) == answers(plain)


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

    def test_required_steps_always_reraise(self):
        engine = engine_for(backend())
        required = PlannedQuery(
            query=QUERY, kind=QueryKind.REWRITTEN, rank=0, required=True
        )
        assert engine._absorb(
            required, AdmissionRejectedError("shed")
        ) == "raise"
