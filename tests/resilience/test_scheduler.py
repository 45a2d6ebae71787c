"""SourceScheduler: one policy, admission, load shedding."""

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
        # The queue counts the caller taking a free slot, so a bound of 0
        # would shed every call with every slot free.
        with pytest.raises(QpiadError, match="max_queue must be at least 1"):
            SourcePolicy(max_queue=0)


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
            SourcePolicy(max_concurrent=1, max_queue=1)
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
