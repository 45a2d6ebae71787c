"""Unit tests of the plan executors' shared contract.

Every executor must (1) merge outcomes strictly in task order, (2) stop
*starting* tasks once its outcome stream is closed while letting work in
flight complete, and (3) carry task exceptions as data instead of
raising them.  The serial executor additionally promises strict
laziness: a task only runs when its outcome is consumed.  The concurrent
executor counts its window per source.
"""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.engine import (
    ConcurrentExecutor,
    ExecutionTask,
    SerialExecutor,
    build_executor,
)
from repro.errors import QpiadError

EXECUTORS = [SerialExecutor(), ConcurrentExecutor(4)]
IDS = ["serial", "concurrent"]
METHODS = ["map", "map_completed"]


def _tasks(thunks):
    return [ExecutionTask(rank, thunk) for rank, thunk in enumerate(thunks)]


def _recorded(count, started, lock, seconds=0.0):
    """*count* tasks that note their start in *started*, then sleep."""

    def make(i):
        def run():
            with lock:
                started.append(i)
            time.sleep(seconds)
            return i

        return run

    return _tasks([make(i) for i in range(count)])


class TestContract:
    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_outcomes_arrive_in_task_order(self, executor):
        outcomes = list(executor.map(_tasks([lambda i=i: i * 10 for i in range(20)])))
        assert [o.rank for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [i * 10 for i in range(20)]

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_errors_are_data_not_raises(self, executor):
        boom = ValueError("boom")

        def fail():
            raise boom

        outcomes = list(executor.map(_tasks([lambda: 1, fail, lambda: 3])))
        assert [o.value for o in outcomes] == [1, None, 3]
        assert outcomes[1].error is boom
        assert outcomes[0].error is None and outcomes[2].error is None

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_empty_plan_is_empty_stream(self, executor):
        assert list(executor.map([])) == []


class TestMapCompleted:
    """The streaming relaxation: completion order, same economy and errors."""

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_one_outcome_per_task(self, executor):
        outcomes = list(
            executor.map_completed(_tasks([lambda i=i: i * 10 for i in range(20)]))
        )
        assert sorted(o.rank for o in outcomes) == list(range(20))
        assert all(o.value == o.rank * 10 for o in outcomes)

    def test_serial_completion_order_is_task_order(self):
        outcomes = list(
            SerialExecutor().map_completed(_tasks([lambda i=i: i for i in range(10)]))
        )
        assert [o.rank for o in outcomes] == list(range(10))

    def test_fast_task_overtakes_slow_one(self):
        release = threading.Event()

        def slow():
            assert release.wait(10)
            return "slow"

        def fast():
            return "fast"

        outcomes = []
        for outcome in ConcurrentExecutor(2).map_completed(_tasks([slow, fast])):
            outcomes.append(outcome)
            # Only once "fast" has been *yielded* may "slow" finish, so
            # the overtaking order is forced, not just likely.
            release.set()
        # Plan-order map would hold "fast" behind "slow"; the streaming
        # path surfaces it first.
        assert [o.value for o in outcomes] == ["fast", "slow"]
        assert [o.rank for o in outcomes] == [1, 0]

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_errors_are_data_not_raises(self, executor):
        boom = ValueError("boom")

        def fail():
            raise boom

        outcomes = list(executor.map_completed(_tasks([lambda: 1, fail, lambda: 3])))
        by_rank = {o.rank: o for o in outcomes}
        assert by_rank[1].error is boom
        assert by_rank[0].value == 1 and by_rank[2].value == 3

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_empty_plan_is_empty_stream(self, executor):
        assert list(executor.map_completed([])) == []


class TestSerialLaziness:
    def test_tasks_run_only_when_consumed(self):
        ran = []

        def make(i):
            def run():
                ran.append(i)
                return i

            return run

        outcomes = SerialExecutor().map(_tasks([make(i) for i in range(5)]))
        assert ran == []  # nothing runs before the first pull
        next(outcomes)
        assert ran == [0]
        next(outcomes)
        assert ran == [0, 1]
        outcomes.close()
        assert ran == [0, 1]  # abandoning the stream spends nothing more


class TestConcurrentWindow:
    @pytest.mark.parametrize("method", METHODS)
    def test_runs_tasks_on_multiple_threads(self, method):
        gate = threading.Barrier(4, timeout=10)

        def rendezvous():
            # Only passes if four tasks really are in flight at once.
            gate.wait()
            return threading.current_thread().name

        outcomes = list(
            getattr(ConcurrentExecutor(4), method)(_tasks([rendezvous] * 4))
        )
        assert len({o.value for o in outcomes}) > 1
        assert all(o.value.startswith("qpiad-engine") for o in outcomes)

    @pytest.mark.parametrize("method", METHODS)
    def test_first_window_is_running_when_the_call_returns(self, method):
        gate = threading.Barrier(4, timeout=5)

        def rendezvous():
            gate.wait()
            return threading.current_thread().name

        stream = getattr(ConcurrentExecutor(3), method)(_tasks([rendezvous] * 3))
        # Before any next(): the barrier only opens if the window's three
        # tasks are already running and waiting for this thread.
        gate.wait()
        outcomes = list(stream)
        assert sorted(o.rank for o in outcomes) == [0, 1, 2]
        assert all(o.error is None for o in outcomes)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_start_handshake_completes_under_frequent_switches(self, method):
        outcomes = []

        def drain():
            stream = getattr(ConcurrentExecutor(8), method)(
                _tasks([lambda i=i: i for i in range(400)])
            )
            outcomes.extend(stream)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=drain, daemon=True)
            runner.start()
            runner.join(30)
        finally:
            sys.setswitchinterval(interval)
        # A lost start signal would leave the driver waiting for ever.
        assert not runner.is_alive()
        assert sorted(o.value for o in outcomes) == list(range(400))

    @pytest.mark.parametrize("method", METHODS)
    def test_an_unread_stream_joins_its_workers_when_closed(self, method):
        before = set(threading.enumerate())
        started, lock = [], threading.Lock()
        stream = getattr(ConcurrentExecutor(3), method)(
            _recorded(6, started, lock, seconds=0.002)
        )
        stream.close()
        # The plan's own pool ran its first window and is gone.
        assert sorted(started) == [0, 1, 2]
        assert [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("qpiad-engine")
        ] == []

    @pytest.mark.parametrize("method", METHODS)
    def test_in_flight_tasks_never_exceed_the_width(self, method):
        started, lock = [], threading.Lock()
        read = 0
        for __ in getattr(ConcurrentExecutor(3), method)(
            _recorded(12, started, lock, seconds=0.002)
        ):
            # Started but not yet read, the outcome in hand included.
            with lock:
                assert len(started) - read <= 3
            read += 1
        assert read == 12

    @pytest.mark.parametrize("method", METHODS)
    def test_closing_after_one_outcome_starts_at_most_one_window(self, method):
        started, lock = [], threading.Lock()
        stream = getattr(ConcurrentExecutor(3), method)(
            _recorded(12, started, lock, seconds=0.002)
        )
        next(stream)
        stream.close()
        assert len(started) <= 1 + 3

    def test_rejects_nonpositive_width(self):
        with pytest.raises(QpiadError, match="max_workers"):
            ConcurrentExecutor(0)


def _sourced(sources, started, lock, seconds=0.0):
    """One task per letter of *sources*, calling that source; each notes
    its source in *started*, then sleeps."""

    def make(i, source):
        def run():
            with lock:
                started.append(source)
            time.sleep(seconds)
            return i

        return run

    return [
        ExecutionTask(i, make(i, source), source) for i, source in enumerate(sources)
    ]


class TestPerSourceWindow:
    def test_a_full_source_never_holds_back_another_sources_task(self):
        other_ran = threading.Event()

        def waits_for_other():
            return other_ran.wait(5)

        def other():
            other_ran.set()
            return True

        # Source "a" fills its window of two and holds its third task; "b"'s
        # task comes after that one in the plan.  The two "a" calls on the
        # wire return only once "b"'s has run.
        tasks = [ExecutionTask(i, waits_for_other, "a") for i in range(3)]
        tasks.append(ExecutionTask(3, other, "b"))
        outcomes = list(ConcurrentExecutor(2).map_completed(tasks))
        assert sorted(o.rank for o in outcomes) == [0, 1, 2, 3]
        assert all(o.value is True for o in outcomes)

    def test_map_yields_in_task_order_across_sources(self):
        def make(i):
            def run():
                # Later tasks finish first.
                time.sleep(0.001 * (8 - i))
                return i

            return run

        tasks = [
            ExecutionTask(i, make(i), source) for i, source in enumerate("aaabbbab")
        ]
        outcomes = list(ConcurrentExecutor(2).map(tasks))
        assert [o.rank for o in outcomes] == list(range(8))
        assert [o.value for o in outcomes] == list(range(8))

    @pytest.mark.parametrize("source", ["", "cars"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_one_source_window_is_exactly_the_width(self, method, source):
        width = 3
        gate = threading.Barrier(width, timeout=5)
        lock = threading.Lock()
        running = [0]
        peak = [0]

        def run():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                # Passes only while *width* tasks are running at once.
                gate.wait()
                time.sleep(0.002)
            finally:
                with lock:
                    running[0] -= 1
            return True

        tasks = [ExecutionTask(i, run, source) for i in range(2 * width)]
        outcomes = list(getattr(ConcurrentExecutor(width), method)(tasks))
        assert [o.error for o in outcomes] == [None] * (2 * width)
        assert peak[0] == width

    @pytest.mark.parametrize("method", METHODS)
    def test_windows_hold_under_frequent_switches(self, method):
        lock = threading.Lock()
        running, peak = Counter(), Counter()

        def make(i, source):
            def run():
                with lock:
                    running[source] += 1
                    peak[source] = max(peak[source], running[source])
                with lock:
                    running[source] -= 1
                return i

            return run

        outcomes = []

        def drain():
            # Three sources of width 3: nine workers on two cores.
            tasks = [
                ExecutionTask(i, make(i, source), source)
                for i, source in enumerate("abc" * 100)
            ]
            outcomes.extend(getattr(ConcurrentExecutor(3), method)(tasks))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=drain, daemon=True)
            runner.start()
            runner.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(o.value for o in outcomes) == list(range(300))
        assert set(peak) == {"a", "b", "c"}
        assert max(peak.values()) <= 3

    @pytest.mark.parametrize("method", METHODS)
    def test_closing_after_one_outcome_starts_one_window_per_source(self, method):
        started, lock = [], threading.Lock()
        stream = getattr(ConcurrentExecutor(2), method)(
            _sourced("ab" * 6, started, lock, seconds=0.002)
        )
        next(stream)
        stream.close()
        # Each source's first window ran to completion; nothing else started.
        assert Counter(started) == {"a": 2, "b": 2}


class TestBuildExecutor:
    def test_unpinned_is_serial(self):
        assert isinstance(build_executor(None), SerialExecutor)

    def test_one_is_serial(self):
        assert isinstance(build_executor(1), SerialExecutor)

    def test_above_one_is_concurrent(self):
        executor = build_executor(6)
        assert isinstance(executor, ConcurrentExecutor)
        assert executor.max_workers == 6

    def test_below_one_rejected(self):
        with pytest.raises(QpiadError, match="max_concurrency"):
            build_executor(0)
