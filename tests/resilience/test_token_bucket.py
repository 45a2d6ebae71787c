"""TokenBucket: pacing and blocking waits."""

import threading

import pytest

from repro.errors import QpiadError
from repro.resilience import TokenBucket


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _WouldWait(Exception):
    pass


def _refuse_to_wait(seconds):
    raise _WouldWait


def try_acquire(bucket):
    """Take a banked token without waiting: ``acquire`` sleeps exactly
    when no whole token is banked, and a sleep that raises takes none."""
    try:
        bucket.acquire(sleep=_refuse_to_wait)
    except _WouldWait:
        return False
    return True


class TestConstruction:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(QpiadError):
            TokenBucket(0)

    def test_rejects_zero_burst(self):
        with pytest.raises(QpiadError):
            TokenBucket(10, burst=0)

    def test_starts_full(self):
        bucket = TokenBucket(1, burst=3, clock=FakeClock())
        assert bucket.available == pytest.approx(3.0)


class TestTryAcquire:
    def test_spends_banked_tokens_then_refuses(self):
        bucket = TokenBucket(1, burst=2, clock=FakeClock())
        assert try_acquire(bucket)
        assert try_acquire(bucket)
        assert not try_acquire(bucket)

    def test_refills_continuously_at_the_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(2, burst=1, clock=clock)
        assert try_acquire(bucket)
        assert not try_acquire(bucket)
        clock.advance(0.5)  # 2/s × 0.5s = 1 token
        assert try_acquire(bucket)

    def test_never_banks_beyond_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(10, burst=2, clock=clock)
        clock.advance(100)
        assert bucket.available == pytest.approx(2.0)


class TestAcquire:
    def test_returns_zero_wait_when_a_token_is_banked(self):
        bucket = TokenBucket(1, burst=1, clock=FakeClock())
        assert bucket.acquire(sleep=lambda s: None) == 0.0

    def test_sleeps_exactly_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(4, burst=1, clock=clock)
        try_acquire(bucket)
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        waited = bucket.acquire(sleep=sleep)
        assert slept == [pytest.approx(0.25)]
        assert waited == pytest.approx(0.25)


class TestThreadSafety:
    def test_concurrent_try_acquire_never_overspends(self):
        bucket = TokenBucket(1000, burst=50, clock=FakeClock())
        taken = []
        lock = threading.Lock()

        def worker():
            for _ in range(20):
                if try_acquire(bucket):
                    with lock:
                        taken.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(taken) == 50  # exactly the banked burst, no double-spend
