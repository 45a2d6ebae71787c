"""Plan executors: the *how* of a retrieval.

An executor turns a stream of :class:`ExecutionTask` thunks into a
stream of :class:`TaskOutcome` values.  The contract every executor
honours:

* **Plan-order merge.**  Outcomes are yielded strictly in task order,
  whatever order the underlying calls complete in.  Answer order (and
  therefore ranking) never depends on the execution strategy.
* **Prefix semantics.**  Closing the outcome stream ends submission: no
  further tasks are *started*, and work already in flight runs to
  completion (a call on the wire is never interrupted) while its unread
  outcomes are dropped.  The consumed outcomes are always a prefix of
  the plan.
* **Errors are data.**  A task that raises yields an outcome carrying
  the exception instead of propagating it; the engine decides whether to
  absorb or re-raise, so failure semantics live in one place.

:class:`SerialExecutor` runs tasks inline and lazily — it is the
historical mediator loop, pulling one task per outcome consumed.
:class:`ConcurrentExecutor` keeps up to ``max_workers`` tasks in flight
on a thread pool; it trades the serial executor's strict laziness for
bounded prefetch.  Its first window goes out when ``map`` or
``map_completed`` is called, not when the first outcome is read, and
every fill waits until each submitted task has started on its worker, so
the caller's next stretch of Python cannot hold a submitted call off the
wire.  Both are context managers: inside a ``with`` block a concurrent
executor runs every plan on one pool and joins its workers when the
block ends; outside one, each plan starts and joins its own.

Both additionally offer ``map_completed``, the streaming relaxation of
the plan-order contract: outcomes surface in *completion* order, so a
fast source call is never held behind a slow earlier one.  The
non-blocking operator layer (:mod:`repro.engine.operators`) is built on
it; consumers owe their own deterministic final ordering.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Iterator, TypeAlias, cast

from repro.errors import QpiadError

__all__ = [
    "ConcurrentExecutor",
    "ExecutionTask",
    "PlanExecutor",
    "SerialExecutor",
    "TaskOutcome",
    "build_executor",
]


@dataclass(frozen=True)
class ExecutionTask:
    """One unit of plan work: a rank and a thunk that performs the call."""

    rank: int
    run: Callable[[], Any]


@dataclass(frozen=True)
class TaskOutcome:
    """What became of one task: a value, or the exception it raised."""

    rank: int
    value: Any = None
    error: BaseException | None = None


#: One stream of outcomes; closing it ends the executor's work.
Outcomes: TypeAlias = Generator[TaskOutcome, None, None]


class SerialExecutor:
    """Run tasks inline, one at a time, pulling lazily.

    This reproduces the historical mediator loops exactly, and is what
    the engine runs whenever it does not fan a plan out: a task only runs
    when its outcome is consumed, so a caller that stops reading (the
    streaming interface) never spends budget on queries it did not need.
    """

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Nothing to release: every task ran on the caller's thread."""

    def map(self, tasks: Iterable[ExecutionTask]) -> Outcomes:
        """Yield one outcome per task, in task order."""
        for task in tasks:
            try:
                value = task.run()
            except Exception as exc:
                yield TaskOutcome(task.rank, error=exc)
            else:
                yield TaskOutcome(task.rank, value=value)

    def map_completed(self, tasks: Iterable[ExecutionTask]) -> Outcomes:
        """Serially, completion order *is* task order — same lazy loop."""
        return self.map(tasks)


class ConcurrentExecutor:
    """Run up to *max_workers* tasks at once on a thread pool.

    The window is bounded: at most *max_workers* tasks are in flight (or
    prefetched) beyond what the consumer has read, so issuance stays
    roughly demand-driven.  The first window fills when the stream is
    created, and each fill returns only once every task it submitted has
    started on a worker.  Closing the stream ends submission: tasks
    already submitted run to completion (the pool is never cancelled)
    and any unread outcomes are discarded with it — exactly the serial
    executor's "break out of the loop" generalised to a window wider
    than one.  A stream closed before its first read has still put its
    first window on the wire.

    Inside a ``with`` block every plan runs on the block's one pool, so a
    retrieval that runs several plans starts its workers once; leaving
    the block shuts the pool down after the calls it accepted and joins
    its workers.  Outside a block each plan gets a pool of its own, shut
    down and joined when the plan's outcome stream ends.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise QpiadError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> "ConcurrentExecutor":
        self._pool = self._new_pool()
        return self

    def __exit__(self, *exc_info: object) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="qpiad-engine"
        )

    def map(self, tasks: Iterable[ExecutionTask]) -> Outcomes:
        """Yield one outcome per started task, in task order."""
        return self._window(tasks, completed=False)

    def map_completed(self, tasks: Iterable[ExecutionTask]) -> Outcomes:
        """Yield outcomes the moment their call completes, window bounded.

        Whichever call in flight finishes first is yielded first and its
        slot refilled, so one slow source call never delays the answers
        of the fast ones.  Closing and error semantics match :meth:`map`.
        """
        return self._window(tasks, completed=True)

    def _window(self, tasks: Iterable[ExecutionTask], *, completed: bool) -> Outcomes:
        """Fill the first window now and return the stream of its outcomes.

        The stream is run to the end of that fill before it is handed
        back, so its ``finally`` shuts a per-plan pool down whenever the
        stream is closed or dropped, read or not.
        """
        outcomes = self._outcomes(iter(tasks), completed)
        next(outcomes)
        return cast(Outcomes, outcomes)

    def _outcomes(
        self, tasks: Iterator[ExecutionTask], completed: bool
    ) -> Generator[TaskOutcome | None, None, None]:
        """Yield ``None`` once the first window is on the wire, then one
        finished call at a time: the oldest call in flight, or with
        *completed* the oldest one done, refilling the window before each."""
        held = self._pool
        scope: AbstractContextManager[ThreadPoolExecutor] = (
            nullcontext(held) if held is not None else self._new_pool()
        )
        with scope as pool:
            # Insertion-ordered, so iteration visits the oldest call first.
            in_flight: dict[Future[Any], int] = {}
            exhausted = self._fill(pool, in_flight, tasks)
            yield None
            while in_flight:
                if completed:
                    done, __ = wait(in_flight, return_when=FIRST_COMPLETED)
                    future = next(call for call in in_flight if call in done)
                else:
                    future = next(iter(in_flight))
                rank = in_flight.pop(future)
                error = future.exception()
                if error is not None:
                    yield TaskOutcome(rank, error=error)
                else:
                    yield TaskOutcome(rank, value=future.result())
                if not exhausted:
                    exhausted = self._fill(pool, in_flight, tasks)

    def _fill(
        self,
        pool: ThreadPoolExecutor,
        in_flight: dict[Future[Any], int],
        tasks: Iterator[ExecutionTask],
    ) -> bool:
        """Submit tasks until the window is full, then wait until each one
        has started on its worker; return whether submission has ended.

        Without the wait a worker could be kept from its call by this
        thread's next stretch of Python, for up to the interpreter's
        switch interval.
        """
        started = threading.Semaphore(0)
        submitted = 0
        exhausted = False
        while len(in_flight) < self.max_workers:
            task = next(tasks, None)
            if task is None:
                exhausted = True
                break
            in_flight[pool.submit(_announced, started, task.run)] = task.rank
            submitted += 1
        for __ in range(submitted):
            started.acquire()
        return exhausted


def _announced(started: threading.Semaphore, run: Callable[[], Any]) -> Any:
    """Run *run* on a worker after telling the submitting thread it began."""
    started.release()
    return run()


#: The execution strategy a :class:`~repro.engine.RetrievalEngine` runs.
PlanExecutor: TypeAlias = SerialExecutor | ConcurrentExecutor


def build_executor(max_concurrency: int | None) -> PlanExecutor:
    """The executor for a concurrency width: serial at 1, thread pool above.

    ``None`` (an unpinned width) also gives the serial executor: a caller
    that leaves the width open runs one call at a time unless it decides
    to fan a plan out itself, as :class:`~repro.engine.RetrievalEngine`
    does.
    """
    if max_concurrency is None or max_concurrency == 1:
        return SerialExecutor()
    if max_concurrency < 1:
        raise QpiadError(
            f"max_concurrency must be at least 1, got {max_concurrency}"
        )
    return ConcurrentExecutor(max_concurrency)
