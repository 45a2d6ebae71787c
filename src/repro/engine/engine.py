"""The retrieval engine: one place for issuance, failures, and telemetry.

:class:`RetrievalEngine` is created per retrieval.  Mediators hand it
planned queries; it issues them through the executor its width selects,
billing every call *before* it runs (the accounting invariant:
``stats.queries_issued`` equals the source's own call log, whatever the
weather), wrapping every call in a telemetry span when traced, and
handling failures identically for every mediator and every executor: a
``strict`` engine raises the first one, any other records it and
degrades.  Plan order (:meth:`~RetrievalEngine.stream`) and completion
order (:meth:`~RetrievalEngine.stream_tuples`) run through one loop.

When the caller leaves the width unpinned (``max_concurrency=None``),
the engine picks it per retrieval.  It times the base call it
issues anyway; if that call spent more of its wall-clock time waiting
than computing, and nothing can end the plan early or shed part of it, a
drained plan's calls are overlapped on a :class:`ConcurrentExecutor`.
Everything else runs one call at a time, exactly as the serial loop does.

A retrieval that runs several plans uses the engine as a context manager:
a pinned width's worker pools, one per source, then serve every plan of
the block and are shut down, their workers joined, when the block ends.
A fanned-out plan's executor is the plan's own and ends with it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Iterator, Protocol

from repro.engine.executor import (
    ConcurrentExecutor,
    ExecutionTask,
    Outcomes,
    build_executor,
)
from repro.engine.plan import PlannedQuery, QueryKind
from repro.errors import (
    AdmissionRejectedError,
    QpiadError,
    QueryBudgetExceededError,
    SourceUnavailableError,
)
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.resilience.scheduler import SourceScheduler, current_scheduler, source_name
from repro.telemetry import Span, SpanKind, Telemetry

if TYPE_CHECKING:
    from repro.sources.surface import Source

__all__ = [
    "FailureKind",
    "MAX_FAN_OUT_WIDTH",
    "RetrievalEngine",
    "RetrievalStatsLike",
]

logger = logging.getLogger(__name__)

#: The most calls an unpinned engine overlaps for one plan.  A top-K plan
#: is usually shorter; a plan with no top-K bound (``QpiadConfig(k=None)``)
#: could otherwise start a thread per generated rewriting.
MAX_FAN_OUT_WIDTH = 16


class FailureKind:
    """Kinds of absorbed retrieval failures (mirrored by ``QueryFailure``)."""

    SOURCE_UNAVAILABLE = "source-unavailable"
    BUDGET_EXHAUSTED = "budget-exhausted"
    ADMISSION_REJECTED = "admission-rejected"


class RetrievalStatsLike(Protocol):
    """What the engine needs from a stats object (structurally matched by
    :class:`~repro.core.results.RetrievalStats` — the engine cannot import
    it without creating a package cycle)."""

    queries_issued: int
    tuples_retrieved: int
    rewritten_issued: int

    def record_failure(self, query: SelectionQuery, kind: str, message: str) -> Any: ...


_SPAN_KINDS = {
    QueryKind.BASE: SpanKind.BASE_QUERY,
    QueryKind.REWRITTEN: SpanKind.REWRITTEN_QUERY,
    QueryKind.RELAXED: SpanKind.RELAXED_QUERY,
    QueryKind.NULL_BINDING: SpanKind.NULL_BINDING,
}

# What the engine does with an absorbed outcome.
_CONTINUE = "continue"
_HALT = "halt"
_RAISE = "raise"


class RetrievalEngine:
    """Executes retrieval plans for one mediated retrieval.

    Parameters
    ----------
    source:
        Default source for planned queries without a per-step override.
    stats:
        The retrieval's cost accounting; every issued call is counted
        here *before* it runs, and every failure is recorded.
    strict:
        Raise the first failure of a planned query.  Otherwise the engine
        degrades: a transient source failure or a load-shed call is
        recorded and skipped, and an exhausted source budget ends the
        plan with the answers gathered so far.  Either way the failure is
        recorded and :attr:`degraded` set.
    max_concurrency:
        How many planned queries may be in flight at once against each
        source.  An int pins the width: ``1`` is the serial loop, higher
        values run the thread-pool executor, whose window is counted per
        source, so a plan over two sources (a join's) keeps up to that
        many calls on each at once.  ``None`` leaves the width to the
        engine, which decides per plan (see :meth:`stream`).  Whatever the
        width, outcomes merge in plan order, so answers, order and
        confidences are identical on a healthy source.
    telemetry:
        Optional telemetry hook; every source call becomes a span and
        feeds the ``mediator.*`` counters.
    scheduler:
        The :class:`~repro.resilience.SourceScheduler` source calls go
        through; ``None`` falls back to the process-wide one, if any.

    Entered with ``with``, the engine keeps its pinned-width executor's
    worker pools open for every plan of the block; leaving the block
    shuts them down after the calls they accepted, so every call is
    billed and no worker outlives the retrieval.
    """

    def __init__(
        self,
        source: Source | None,
        stats: RetrievalStatsLike,
        *,
        strict: bool = False,
        max_concurrency: int | None = None,
        telemetry: Telemetry | None = None,
        scheduler: SourceScheduler | None = None,
    ):
        if max_concurrency is not None and max_concurrency < 1:
            raise QpiadError(
                f"max_concurrency must be at least 1, got {max_concurrency}"
            )
        self._source = source
        self.stats = stats
        self._strict = strict
        self._scheduler = scheduler if scheduler is not None else current_scheduler()
        self._pinned = max_concurrency is not None
        self._executor = build_executor(max_concurrency)
        # Whether the timed base call mostly waited (unpinned width only).
        self._base_waited = False
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self.degraded = False

    def __enter__(self) -> "RetrievalEngine":
        self._executor.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._executor.__exit__(*exc_info)

    # ------------------------------------------------------------------ #
    # Plan execution

    def run_base(self, step: PlannedQuery) -> Relation:
        """Issue a base query inline; its failure always propagates.

        Base queries run serially and are never absorbed: without certain
        answers there is nothing to degrade *to*.  When the width
        is not pinned the call is also timed: whether its wall-clock time
        was mostly waiting, rather than this thread's CPU time, decides
        whether a drained plan fans out (see :meth:`stream`).
        """
        if self._pinned:
            return self._issue(step)
        started, cpu_started = time.perf_counter(), time.thread_time()
        retrieved = self._issue(step)
        cpu = time.thread_time() - cpu_started
        waited = time.perf_counter() - started - cpu
        self._base_waited = waited > cpu
        return retrieved

    def stream(
        self, plan: Iterable[PlannedQuery], *, drained: bool = False
    ) -> Iterator[tuple[PlannedQuery, Relation]]:
        """Execute planned queries, yielding ``(step, relation)`` in plan order.

        A strict engine raises the first failed step.  Otherwise a failed
        step is recorded, counted and skipped, and an exhausted source
        budget ends the plan: the engine closes the outcome stream, so
        nothing new starts, and calls in flight complete and are billed.

        *drained* is the caller's promise to consume every outcome.  When
        the width is not pinned, a drained plan fans out if the base call
        mostly waited and nothing can end the plan early or shed part of
        it: the engine is not strict, the source declares no query
        budget, and the scheduler the calls go through has no bounded
        admission queue.  Its width is then the plan length, capped by
        :data:`MAX_FAN_OUT_WIDTH` and the scheduler's ``max_concurrent``.
        Any other plan runs one call at a time, so a lazy consumer never
        pays for calls it does not read.
        """
        steps = list(plan)
        executor = self._executor
        if drained and not self._pinned:
            width = self._fan_out_width(len(steps))
            if width > 1:
                executor = ConcurrentExecutor(width)
        yield from self._run(steps, executor.map)

    def stream_tuples(
        self, plan: Iterable[PlannedQuery]
    ) -> Generator[tuple[PlannedQuery, Any], None, None]:
        """Execute planned queries, yielding ``(step, row)`` as calls complete.

        The incremental tuple path behind the non-blocking operators
        (:mod:`repro.engine.operators`): instead of merging whole
        relations back in plan order, each source call's rows surface the
        moment that call returns — completion order across steps, source
        row order within a step.  A symmetric-hash join fed by this
        stream emits its first joined tuple as soon as a match exists,
        independent of the slowest source.

        Billing, telemetry, and failure handling are identical to
        :meth:`stream` — every call is counted before it runs — but
        failures are met in completion order, so which failed step a
        strict engine raises, or which steps a degrading one skips before
        an exhausted budget halts it, may depend on the schedule.
        Consumers must impose their own deterministic final order: rank
        at the end, stream in the middle.

        The plan starts when this is called, not when the first row is
        read: a pinned width above 1 has its first window of calls per
        source on the wire by the time this returns, so the caller can do
        other work while they wait on the sources.  The serial executor
        still runs a call only when its rows are read.
        """
        answered = self._run(list(plan), self._executor.map_completed)
        return ((step, row) for step, retrieved in answered for row in retrieved)

    def _run(
        self,
        steps: list[PlannedQuery],
        outcomes_of: Callable[[Iterable[ExecutionTask]], Outcomes],
    ) -> Iterator[tuple[PlannedQuery, Relation]]:
        """The plan loop of both orders: start *steps* on *outcomes_of* (an
        executor's ``map`` or ``map_completed``) now, and return the stream
        of each answered step with its relation, which absorbs or raises
        failures as it is read."""
        if not steps:
            return iter(())
        # Each task's rank is its step's position, whatever order it ends
        # in; its source is the backend the scheduler keys it by, so two
        # wrappers of one backend share that backend's window.
        tasks = (
            ExecutionTask(
                position,
                self._runner(step),
                source_name(step.source if step.source is not None else self._source),
            )
            for position, step in enumerate(steps)
        )
        outcomes = outcomes_of(tasks)

        def answered() -> Iterator[tuple[PlannedQuery, Relation]]:
            try:
                for outcome in outcomes:
                    step = steps[outcome.rank]
                    if outcome.error is None:
                        if step.kind == QueryKind.REWRITTEN:
                            with self._lock:
                                self.stats.rewritten_issued += 1
                        yield step, outcome.value
                        continue
                    verdict = self._absorb(step, outcome.error)
                    if verdict == _RAISE:
                        raise outcome.error
                    if verdict == _HALT:
                        break
            finally:
                outcomes.close()

        return answered()

    def _fan_out_width(self, steps: int) -> int:
        """How many of a drained *steps*-long plan's calls to overlap.

        Overlapping pays only when the calls wait: on a source that
        computes in-process it adds threads to CPU work.  A plan that can
        stop part-way — a strict one at its first failure, any plan at the
        end of the source's query budget — must stay serial, or a wider
        window would put calls on the wire that a serial run never makes.
        So must a plan whose calls queue for admission in a bounded queue:
        a serial plan holds one place in it, a fanned-out one up to its
        width, and the scheduler sheds the callers past the bound.
        """
        capabilities = getattr(self._source, "capabilities", None)
        if (
            self._strict
            or not self._base_waited
            or getattr(capabilities, "query_budget", None) is not None
        ):
            return 1
        width = min(steps, MAX_FAN_OUT_WIDTH)
        if self._scheduler is not None:
            admission = self._scheduler.policy
            if admission.max_queue is not None:
                return 1
            if admission.max_concurrent is not None:
                width = min(width, admission.max_concurrent)
        return width

    # ------------------------------------------------------------------ #
    # One billable source call

    def _runner(self, step: PlannedQuery) -> Callable[[], Relation]:
        telemetry = self._telemetry
        if telemetry is None:
            return lambda: self._issue(step)
        # Built on the submitting thread: the call span nests under the
        # span open here even when a pool thread runs the task.
        parent = telemetry.tracer.current()
        return lambda: self._issue(step, parent)

    def _issue(self, step: PlannedQuery, parent: Span | None = None) -> Relation:
        """One billable source call: counted *before* it runs, spanned when traced.

        Issuance is recorded up front so calls that fail — transiently, on
        an exhausted budget, or with the response lost after the source
        already charged for the work — still appear in
        ``stats.queries_issued``.  This keeps the mediator's cost
        accounting aligned with the source's own access log instead of
        silently undercounting exactly the calls that hurt most.  Runs on
        the executor's thread, so all shared bookkeeping is locked; the
        call span opens under *parent*, or under the span open on this
        thread when ``None``.
        """
        source = step.source if step.source is not None else self._source
        if source is None:
            raise ValueError(f"planned query {step.query} has no source to run on")
        with self._lock:
            self.stats.queries_issued += 1
        telemetry = self._telemetry
        if telemetry is None:
            retrieved = self._call_source(source, step)
        else:
            # The span's name and attributes are formatted only when traced.
            telemetry.count("mediator.queries_issued")
            attributes: dict[str, Any] = {"query": str(step.query)}
            if step.kind == QueryKind.REWRITTEN:
                attributes["precision"] = round(step.estimated_precision, 6)
            if step.source is not None:
                attributes["source"] = getattr(source, "name", "?")
            with telemetry.span(
                step.span_name(), _SPAN_KINDS[step.kind], parent=parent, **attributes
            ) as span:
                retrieved = self._call_source(source, step)
                span.set(tuples=len(retrieved))
            telemetry.count("mediator.tuples_retrieved", len(retrieved))
        with self._lock:
            self.stats.tuples_retrieved += len(retrieved)
        return retrieved

    def _call_source(self, source: Any, step: PlannedQuery) -> Relation:
        """Put one planned call on the wire, via the scheduler when present.

        The scheduler runs an admitted thunk exactly once and sheds the
        rest, so every call billed above either reaches the source or
        fails with :class:`~repro.errors.AdmissionRejectedError`.
        """
        if step.kind == QueryKind.NULL_BINDING:
            operation = f"null-binding:{step.max_nulls}"

            def perform() -> Relation:
                return source.execute_null_binding(step.query, max_nulls=step.max_nulls)
        else:
            operation = "execute"

            def perform() -> Relation:
                return source.execute(step.query)

        scheduler = self._scheduler
        if scheduler is None:
            return perform()
        return scheduler.call(source, step.query, operation, perform)

    # ------------------------------------------------------------------ #
    # Failure handling (in plan-merge order, so failure semantics do not
    # depend on the execution strategy)

    def _absorb(self, step: PlannedQuery, error: BaseException) -> str:
        telemetry = self._telemetry
        if isinstance(error, QueryBudgetExceededError):
            kind, verdict = FailureKind.BUDGET_EXHAUSTED, _HALT
            if telemetry is not None:
                telemetry.count("mediator.budget_exhausted")
        elif isinstance(error, AdmissionRejectedError):
            # Load shedding: the scheduler refused to queue the call.  It
            # is skipped like a transient source failure, but counted
            # apart so that congestion is visible as such.
            kind, verdict = FailureKind.ADMISSION_REJECTED, _CONTINUE
            if telemetry is not None:
                telemetry.count("mediator.load_shed")
        elif isinstance(error, SourceUnavailableError):
            kind, verdict = FailureKind.SOURCE_UNAVAILABLE, _CONTINUE
            if telemetry is not None:
                telemetry.count("mediator.source_failures")
        else:
            return _RAISE
        self.stats.record_failure(step.query, kind, str(error))
        self.degraded = True
        if self._strict:
            return _RAISE
        if verdict == _CONTINUE:
            logger.info(
                "planned query %r failed (%s); continuing with the remaining plan",
                step.query, error,
            )
        return verdict
