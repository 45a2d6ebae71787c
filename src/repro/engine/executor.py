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
:class:`ConcurrentExecutor` keeps up to ``max_workers`` tasks of each
source in flight on threads; it trades the serial executor's strict
laziness for prefetch bounded per source, so a plan over two sources
keeps both busy at once while neither sees more than ``max_workers``
calls.  A plan over one source has one window, ``max_workers`` wide.
Its first window per source goes out when ``map`` or ``map_completed``
is called, not when the first outcome is read, and every fill waits
until each submitted task has started on its worker, so the caller's
next stretch of Python cannot hold a submitted call off the wire.  Both
are context managers: inside a ``with`` block a concurrent executor runs
every plan on the same per-source pools and joins their workers when the
block ends; outside one, each plan starts and joins its own.

Both additionally offer ``map_completed``, the streaming relaxation of
the plan-order contract: outcomes surface in *completion* order, so a
fast source call is never held behind a slow earlier one.  The
non-blocking operator layer (:mod:`repro.engine.operators`) is built on
it; consumers owe their own deterministic final ordering.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
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
    """One unit of plan work: a rank, a thunk that performs the call, and
    the name of the source it calls, which a concurrent executor counts
    its window by (tasks that name no source share one window)."""

    rank: int
    run: Callable[[], Any]
    source: str = ""


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
    """Run up to *max_workers* tasks of each source at once on threads.

    The window is counted per source (:attr:`ExecutionTask.source`): at
    most *max_workers* tasks of one source are in flight (or prefetched)
    beyond what the consumer has read, so each source's issuance stays
    roughly demand-driven, and the calls of a plan over two sources
    overlap while neither source sees more than *max_workers*.  A plan
    whose tasks name one source, or none, has one window, as wide as
    *max_workers*.  :meth:`map` yields in task order, so it stops
    filling at the first task whose source is full; :meth:`map_completed`
    reads past that task to the next one whose source has room, so a full
    source never holds back another source's call.  Reading ahead starts
    nothing: a task is a thunk.

    The first window per source fills when the stream is created, and
    each fill returns only once every task it submitted has started on a
    worker.  Closing the stream ends submission: tasks already submitted
    run to completion (a pool is never cancelled), tasks read but not
    submitted never start, and any unread outcomes are discarded with
    them — exactly the serial executor's "break out of the loop"
    generalised to a window wider than one.  A stream closed before its
    first read has still put its first window on the wire.

    Each source's tasks run on a pool of *max_workers* threads of its
    own, started with that source's first submission, so a submitted task
    never waits behind busy workers.  Inside a ``with`` block the pools
    serve every plan of the block, so a retrieval that runs several plans
    starts its workers once; leaving the block shuts them down after the
    calls they accepted and joins their workers.  Outside a block each
    plan gets pools of its own, shut down and joined when the plan's
    outcome stream ends.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise QpiadError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
        self._pools: dict[str, ThreadPoolExecutor] | None = None

    def __enter__(self) -> "ConcurrentExecutor":
        self._pools = {}
        return self

    def __exit__(self, *exc_info: object) -> None:
        pools, self._pools = self._pools, None
        if pools is not None:
            _shut_down(pools)

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
        back, so its ``finally`` shuts per-plan pools down whenever the
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
        held = self._pools
        pools: dict[str, ThreadPoolExecutor] = held if held is not None else {}
        try:
            window = _Window(self.max_workers, pools, tasks, completed=completed)
            window.fill()
            yield None
            while window.in_flight:
                yield window.take()
                window.fill()
        finally:
            if held is None:
                _shut_down(pools)


class _Window:
    """The calls of one outcome stream, counted per source, taken in task
    order or, with *completed*, in completion order.

    ``in_flight`` maps each submitted call's future to its task, oldest
    first; ``busy`` counts them per source, a call counting until its
    outcome is taken.  ``held`` keeps, per source and in task order, the
    tasks read from the plan that could not start because their source
    was full.
    """

    def __init__(
        self,
        width: int,
        pools: dict[str, ThreadPoolExecutor],
        tasks: Iterator[ExecutionTask],
        *,
        completed: bool,
    ):
        self.width = width
        self.pools = pools
        self.tasks = tasks
        self.completed = completed
        self.in_flight: dict[Future[Any], ExecutionTask] = {}
        self.busy: Counter[str] = Counter()
        self.held: dict[str, deque[ExecutionTask]] = {}
        self.exhausted = False

    def fill(self) -> None:
        """Submit every task that has room, then wait until each one has
        started on its worker.

        Held tasks go first.  Then the plan is read on: a task whose
        source has room is submitted, and one whose source is full is
        held.  In completion order reading goes on past a held task, to
        the end of the plan if need be; in task order it stops at the
        first held task, whose outcome must come before any later one's.

        Without the wait a worker could be kept from its call by this
        thread's next stretch of Python, for up to the interpreter's
        switch interval.
        """
        started = threading.Semaphore(0)
        submitted = 0
        for source, queue in self.held.items():
            while queue and self.busy[source] < self.width:
                self._submit(queue.popleft(), started)
                submitted += 1
        while not self.exhausted and (self.completed or not any(self.held.values())):
            task = next(self.tasks, None)
            if task is None:
                self.exhausted = True
            elif self.busy[task.source] < self.width:
                self._submit(task, started)
                submitted += 1
            else:
                self.held.setdefault(task.source, deque()).append(task)
        for __ in range(submitted):
            started.acquire()

    def _submit(self, task: ExecutionTask, started: threading.Semaphore) -> None:
        pool = self.pools.get(task.source)
        if pool is None:
            pool = self.pools[task.source] = ThreadPoolExecutor(
                max_workers=self.width, thread_name_prefix="qpiad-engine"
            )
        self.in_flight[pool.submit(_announced, started, task.run)] = task
        self.busy[task.source] += 1

    def take(self) -> TaskOutcome:
        """The outcome of the oldest call in flight, or in completion
        order of the oldest one done, freeing its source's slot."""
        if self.completed:
            done, __ = wait(self.in_flight, return_when=FIRST_COMPLETED)
            future = next(call for call in self.in_flight if call in done)
        else:
            future = next(iter(self.in_flight))
        task = self.in_flight.pop(future)
        self.busy[task.source] -= 1
        error = future.exception()
        if error is not None:
            return TaskOutcome(task.rank, error=error)
        return TaskOutcome(task.rank, value=future.result())


def _shut_down(pools: dict[str, ThreadPoolExecutor]) -> None:
    """Shut every pool down after the calls it accepted, joining its workers."""
    for pool in pools.values():
        pool.shutdown(wait=True)


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
