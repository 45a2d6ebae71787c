"""Deadline values and ambient propagation via deadline_scope."""

import threading

from repro.resilience import (
    Deadline,
    current_deadline,
    deadline_scope,
    remaining_deadline,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestDeadline:
    def test_remaining_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock)
        clock.now = 3.0
        assert deadline.remaining() == 2.0

    def test_expired_once_the_budget_is_spent(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        clock.now = 1.5
        assert deadline.remaining() == -0.5


class TestScope:
    def test_default_is_unbounded(self):
        assert current_deadline() is None
        assert remaining_deadline() is None

    def test_scope_publishes_and_restores(self):
        deadline = Deadline.after(10.0, FakeClock())
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            assert remaining_deadline() == 10.0
        assert current_deadline() is None

    def test_none_scope_is_a_no_op(self):
        with deadline_scope(None):
            assert current_deadline() is None

    def test_scopes_nest_and_restore_the_outer(self):
        outer = Deadline.after(10.0, FakeClock())
        inner = Deadline.after(1.0, FakeClock())
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_restores_on_exception(self):
        deadline = Deadline.after(10.0, FakeClock())
        try:
            with deadline_scope(deadline):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_deadline() is None

    def test_ambient_deadline_is_thread_local(self):
        deadline = Deadline.after(10.0, FakeClock())
        seen = []

        def peek():
            seen.append(current_deadline())

        with deadline_scope(deadline):
            thread = threading.Thread(target=peek)
            thread.start()
            thread.join()
        assert seen == [None]  # other threads never inherit the scope
