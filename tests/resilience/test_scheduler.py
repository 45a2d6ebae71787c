"""SourceScheduler: one policy, admission, load shedding, dedup."""

import threading
import time

import pytest

from repro.errors import AdmissionRejectedError, QpiadError
from repro.query import SelectionQuery
from repro.resilience import (
    SourcePolicy,
    SourceScheduler,
    current_scheduler,
    install_scheduler,
    scheduler_scope,
)

QUERY = SelectionQuery.equals("make", "BMW")
OTHER = SelectionQuery.equals("make", "Audi")


class FakeSource:
    def __init__(self, name="src"):
        self.name = name


def wait_until(predicate, timeout=5.0):
    give_up_at = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > give_up_at:
            raise AssertionError("condition never became true")
        time.sleep(0.001)


class TestPolicyResolution:
    def test_every_source_gets_the_one_policy(self):
        policy = SourcePolicy(rate_per_second=5.0, max_concurrent=3)
        scheduler = SourceScheduler(policy)
        first, second = FakeSource("a"), FakeSource("b")
        assert scheduler.state_for(first).policy is policy
        assert scheduler.state_for(second).policy is policy
        # Each source keeps its own state: one bucket per name.
        assert scheduler.state_for(first) is scheduler.state_for(FakeSource("a"))
        assert scheduler.state_for(first) is not scheduler.state_for(second)

    def test_the_default_policy(self):
        assert SourceScheduler().policy == SourcePolicy()

    def test_policy_validation(self):
        with pytest.raises(QpiadError):
            SourcePolicy(rate_per_second=-1)
        with pytest.raises(QpiadError):
            SourcePolicy(max_concurrent=0)


class TestAdmission:
    def test_a_plain_call_passes_through(self):
        scheduler = SourceScheduler()
        assert scheduler.call(FakeSource(), QUERY, "execute", lambda: 7) == 7
        assert scheduler.metrics.value("scheduler.admitted") == 1

    def test_rate_limit_waits_via_the_injected_sleep(self):
        slept = []
        scheduler = SourceScheduler(
            SourcePolicy(rate_per_second=10, burst=1),
            sleep=lambda s: slept.append(s),
        )
        source = FakeSource()
        scheduler.call(source, QUERY, "execute", lambda: 1)
        scheduler.call(source, OTHER, "execute", lambda: 2)  # bucket is empty
        assert slept  # the second call paid a pacing wait

    def test_full_queue_sheds_with_admission_rejected(self):
        scheduler = SourceScheduler(
            SourcePolicy(max_concurrent=1, max_queue=1, dedup=False)
        )
        source = FakeSource()
        state = scheduler.state_for(source)
        release = threading.Event()
        outcomes = []

        def blocked_call(query):
            try:
                outcomes.append(
                    scheduler.call(
                        source, query, "execute", lambda: release.wait(5.0)
                    )
                )
            except AdmissionRejectedError as exc:
                outcomes.append(exc)

        first = threading.Thread(target=blocked_call, args=(QUERY,))
        first.start()
        wait_until(lambda: state.inflight == 1)
        second = threading.Thread(target=blocked_call, args=(OTHER,))
        second.start()
        wait_until(lambda: state.queued == 1)
        # Queue bound reached: the third caller is shed immediately.
        with pytest.raises(AdmissionRejectedError):
            scheduler.call(source, QUERY, "execute", lambda: 3)
        assert scheduler.metrics.value("scheduler.rejected_queue_full") == 1
        release.set()
        first.join(timeout=5)
        second.join(timeout=5)
        assert outcomes == [True, True]


class TestDedup:
    def make(self, **policy):
        return SourceScheduler(SourcePolicy(**policy))

    def test_identical_inflight_calls_share_one_source_call(self):
        # Rate-limited on a frozen clock, so no token refills mid-test.
        scheduler = SourceScheduler(
            SourcePolicy(rate_per_second=1, burst=4), clock=lambda: 0.0
        )
        source = FakeSource()
        release = threading.Event()
        calls = []
        results = []

        def thunk():
            calls.append(1)
            release.wait(5.0)
            return "answer"

        def run():
            results.append(scheduler.call(source, QUERY, "execute", thunk))

        leader = threading.Thread(target=run)
        leader.start()
        wait_until(lambda: scheduler._flights.in_flight() == 1)
        follower = threading.Thread(target=run)
        follower.start()
        wait_until(lambda: scheduler.metrics.value("scheduler.dedup_hits") == 1)
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert results == ["answer", "answer"]
        assert len(calls) == 1  # one wire call, two consumers
        # The rate charge equals the wire calls: the follower spends no token.
        assert scheduler.state_for(source).bucket.available == 3

    def test_leader_failure_propagates_to_followers(self):
        scheduler = self.make()
        source = FakeSource()
        release = threading.Event()
        caught = []

        def thunk():
            release.wait(5.0)
            raise AdmissionRejectedError("synthetic failure")

        def run():
            try:
                scheduler.call(source, QUERY, "execute", thunk)
            except AdmissionRejectedError as exc:
                caught.append(exc)

        leader = threading.Thread(target=run)
        leader.start()
        wait_until(lambda: scheduler._flights.in_flight() == 1)
        follower = threading.Thread(target=run)
        follower.start()
        wait_until(lambda: scheduler.metrics.value("scheduler.dedup_hits") == 1)
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert len(caught) == 2
        assert caught[0] is caught[1]  # the very same exception instance

    def test_different_operations_never_conflate(self):
        scheduler = self.make()
        source = FakeSource()
        calls = []
        scheduler.call(source, QUERY, "execute", lambda: calls.append("a"))
        scheduler.call(source, QUERY, "null-binding:2", lambda: calls.append("b"))
        assert calls == ["a", "b"]

    def test_dedup_disabled_by_policy(self):
        scheduler = self.make(dedup=False)
        source = FakeSource()
        scheduler.call(source, QUERY, "execute", lambda: 1)
        assert scheduler._flights.in_flight() == 0
        assert scheduler.metrics.value("scheduler.dedup_hits") == 0

    def test_sequential_identical_calls_both_hit_the_source(self):
        scheduler = self.make()
        source = FakeSource()
        calls = []
        scheduler.call(source, QUERY, "execute", lambda: calls.append(1))
        scheduler.call(source, QUERY, "execute", lambda: calls.append(2))
        assert calls == [1, 2]  # dedup is in-flight only, never a cache


class TestProcessWideInstall:
    def test_install_and_uninstall(self):
        scheduler = SourceScheduler()
        previous = install_scheduler(scheduler)
        try:
            assert current_scheduler() is scheduler
        finally:
            install_scheduler(previous)
        assert current_scheduler() is previous

    def test_scope_restores_on_exit(self):
        scheduler = SourceScheduler()
        before = current_scheduler()
        with scheduler_scope(scheduler):
            assert current_scheduler() is scheduler
        assert current_scheduler() is before
