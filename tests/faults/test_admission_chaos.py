"""The chaos invariants with the SourceScheduler in the loop.

Admission control must not change what a mediated retrieval *means*.
With a scheduler attached, at every executor width and every seed:

* the accounting invariant holds exactly — ``queries_issued`` equals the
  fault-injecting source's own call log;
* certain answers are never lost;
* surviving ranked answers are a subsequence of the clean ranking;
* on a clean source the ranked order is bit-identical to a serial,
  scheduler-less run.
"""

import threading

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import SelectionQuery
from repro.resilience import SourcePolicy, SourceScheduler
from repro.sources import SourceDecorator

QUERY = SelectionQuery.equals("body_style", "Convt")
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)
WIDTHS = (1, 2, 4, 8)


def make_scheduler(telemetry=None, **overrides):
    policy = dict(
        rate_per_second=100_000.0,  # pacing on, but never the bottleneck
        burst=64,
        max_concurrent=8,
        max_queue=64,
    )
    policy.update(overrides)
    return SourceScheduler(SourcePolicy(**policy), telemetry=telemetry)


def chaos_mediate(env, seed, width):
    plan = FaultPlan(
        seed=seed,
        unavailable_rate=0.25,
        churn_rate=0.1,
        truncate_rate=0.1,
        spare_first=1,  # the base query must land
    )
    source = FaultInjectingSource(env.web_source(), plan)
    scheduler = make_scheduler()
    mediator = QpiadMediator(
        source,
        env.knowledge,
        QpiadConfig(k=10, max_concurrency=width),
        scheduler=scheduler,
    )
    return mediator, source, scheduler


@pytest.fixture(scope="module")
def clean(cars_env):
    return QpiadMediator(
        cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
    ).query(QUERY)


def is_subsequence(rows, reference):
    iterator = iter(reference)
    return all(row in iterator for row in rows)


class TestAccountingUnderAdmission:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_queries_issued_matches_the_source_call_log(
        self, cars_env, seed, width
    ):
        mediator, source, scheduler = chaos_mediate(cars_env, seed, width)
        result = mediator.query(QUERY)
        assert result.stats.queries_issued == source.statistics.calls
        # Everything the engine billed went through the scheduler.
        assert scheduler.metrics.value("scheduler.calls") == (
            result.stats.queries_issued
        )


class TestDegradationUnderAdmission:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_certain_answers_are_never_lost(self, cars_env, clean, seed, width):
        mediator, __, __ = chaos_mediate(cars_env, seed, width)
        result = mediator.query(QUERY)
        assert set(result.certain) == set(clean.certain)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_surviving_ranking_is_a_clean_subsequence(
        self, cars_env, clean, seed, width
    ):
        mediator, __, __ = chaos_mediate(cars_env, seed, width)
        result = mediator.query(QUERY)
        assert is_subsequence(
            [answer.row for answer in result.ranked],
            [answer.row for answer in clean.ranked],
        )


class TestDeterminismUnderAdmission:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_clean_ranked_order_is_bit_identical_to_serial(
        self, cars_env, clean, width
    ):
        scheduler = make_scheduler()
        result = QpiadMediator(
            cars_env.web_source(),
            cars_env.knowledge,
            QpiadConfig(k=10, max_concurrency=width),
            scheduler=scheduler,
        ).query(QUERY)
        assert [(a.row, a.confidence) for a in result.ranked] == [
            (a.row, a.confidence) for a in clean.ranked
        ]
        assert list(result.certain) == list(clean.certain)

    def test_serial_chaos_replays_identically_with_a_scheduler(self, cars_env):
        def run():
            mediator, source, __ = chaos_mediate(cars_env, seed=3, width=1)
            return mediator.query(QUERY), source

        first, first_source = run()
        second, second_source = run()
        assert first_source.statistics.events == second_source.statistics.events
        assert [a.row for a in first.ranked] == [a.row for a in second.ranked]


class ShedWatch:
    """Scheduler telemetry that opens :attr:`gate` once *shed* calls have
    been rejected at a full admission queue."""

    def __init__(self, shed):
        self.gate = threading.Event()
        self._wanted = shed
        self._shed = 0
        self._lock = threading.Lock()

    def count(self, name, amount=1):
        if name == "scheduler.rejected_queue_full":
            with self._lock:
                self._shed += amount
                if self._shed >= self._wanted:
                    self.gate.set()

    def observe(self, name, value):
        pass


class HoldFirstRewritten(SourceDecorator):
    """Holds the first call other than *base* until *gate* opens."""

    def __init__(self, inner, base, gate):
        super().__init__(inner)
        self._base = base
        self._gate = gate
        self._lock = threading.Lock()
        self._held_one = False

    def execute(self, query):
        if query != self._base:
            with self._lock:
                hold, self._held_one = not self._held_one, True
            if hold:
                self._gate.wait(timeout=10)
        return self.inner.execute(query)


class TestLoadShedding:
    @pytest.mark.parametrize("width", (4, 8))
    def test_shed_calls_degrade_instead_of_failing(self, cars_env, clean, width):
        # One slot, one queue seat.  The base query runs alone, so certain
        # answers land.  The first rewritten call then holds the slot until
        # the rest of the first window is shed: one more caller waits in
        # the seat, and the other width - 2 find the queue full.
        watch = ShedWatch(shed=width - 2)
        scheduler = make_scheduler(
            telemetry=watch, max_concurrent=1, max_queue=1
        )
        backend = cars_env.web_source()
        source = HoldFirstRewritten(backend, QUERY, watch.gate)
        result = QpiadMediator(
            source,
            cars_env.knowledge,
            QpiadConfig(k=10, max_concurrency=width),
            scheduler=scheduler,
        ).query(QUERY)
        assert watch.gate.is_set()
        shed = scheduler.metrics.value("scheduler.rejected_queue_full")
        assert shed >= width - 2
        assert len(result.stats.failures) == shed
        # A shed call is billed but never reaches the source.
        source_calls = (
            backend.statistics.queries_answered + backend.statistics.rejected_queries
        )
        assert result.stats.queries_issued == source_calls + shed
        assert result.degraded
        kinds = {failure.kind for failure in result.stats.failures}
        assert kinds == {"admission-rejected"}
        assert set(result.certain) == set(clean.certain)
        assert is_subsequence(
            [answer.row for answer in result.ranked],
            [answer.row for answer in clean.ranked],
        )
