"""The retrieval engine: one place for issuance, budgets, and telemetry.

:class:`RetrievalEngine` is created per retrieval.  Mediators hand it
planned queries; it issues them through the executor its policy's width
selects, billing every call *before* it runs (the accounting invariant:
``stats.queries_issued`` equals the source's own call log, whatever the
weather), wrapping every call in a telemetry span when traced, and
enforcing the :class:`~repro.engine.policy.ExecutionPolicy` — failure
budget, source budget exhaustion, wall-clock deadline — identically for
every mediator and every executor.  Plan order (:meth:`~RetrievalEngine.stream`)
and completion order (:meth:`~RetrievalEngine.stream_tuples`) run through
one loop.

When the caller leaves the width unpinned (``policy.max_concurrency is
None``), the engine picks it per retrieval.  It times the base call it
issues anyway; if that call spent more of its wall-clock time waiting
than computing, and nothing can end the plan early or shed part of it, a
drained plan's calls are overlapped on a :class:`ConcurrentExecutor`.
Everything else runs one call at a time, exactly as the serial loop does.

A retrieval that runs several plans uses the engine as a context manager:
a pinned width's worker pool then serves every plan of the block and is
shut down, its workers joined, when the block ends.  A fanned-out plan's
executor is the plan's own and ends with it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol

from repro.engine.executor import (
    ConcurrentExecutor,
    ExecutionTask,
    Outcomes,
    build_executor,
)
from repro.engine.plan import PlannedQuery, QueryKind
from repro.engine.policy import ExecutionPolicy
from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    NullBindingError,
    QueryBudgetExceededError,
    SourceUnavailableError,
)
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.scheduler import SourceScheduler, current_scheduler
from repro.telemetry import Span, SpanKind, Telemetry, maybe_span

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
    DEADLINE = "deadline"
    ADMISSION_REJECTED = "admission-rejected"


class RetrievalStatsLike(Protocol):
    """What the engine needs from a stats object (structurally matched by
    :class:`~repro.core.results.RetrievalStats` — the engine cannot import
    it without creating a package cycle)."""

    queries_issued: int
    tuples_retrieved: int
    rewritten_issued: int

    def record_failure(
        self, query: SelectionQuery | None, kind: str, message: str
    ) -> Any: ...


_SPAN_KINDS = {
    QueryKind.BASE: SpanKind.BASE_QUERY,
    QueryKind.REWRITTEN: SpanKind.REWRITTEN_QUERY,
    QueryKind.RELAXED: SpanKind.RELAXED_QUERY,
    QueryKind.MULTI_NULL: SpanKind.MULTI_NULL,
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
    policy:
        Failure/deadline/concurrency limits (see :class:`ExecutionPolicy`).
    stats:
        The retrieval's cost accounting; every issued call is counted
        here *before* it runs, and every absorbed failure is recorded.
    telemetry:
        Optional telemetry hook; every source call becomes a span and
        feeds the ``mediator.*`` counters.
    clock:
        Injectable monotonic clock backing ``policy.deadline_seconds``.
        The deadline window opens when the engine is constructed.
    label:
        Description of the retrieval (normally the user query) used in
        deadline messages.

    Entered with ``with``, the engine keeps its pinned-width executor's
    worker pool open for every plan of the block; leaving the block
    shuts the pool down after the calls it accepted, so every call is
    billed and no worker outlives the retrieval.
    """

    def __init__(
        self,
        source: Source | None,
        policy: ExecutionPolicy,
        stats: RetrievalStatsLike,
        *,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
        label: str | None = None,
        scheduler: SourceScheduler | None = None,
    ):
        self._source = source
        self._policy = policy
        self.stats = stats
        self._scheduler = scheduler if scheduler is not None else current_scheduler()
        self._pinned = policy.max_concurrency is not None
        self._executor = build_executor(policy.max_concurrency)
        # Whether the timed base call mostly waited (unpinned width only).
        self._base_waited = False
        self._telemetry = telemetry
        self._clock = clock
        self._label = label
        self._started = clock()
        # The policy deadline as a propagatable value: queued admission
        # waits and retry backoffs below this engine cap against it.
        self._deadline = (
            Deadline(self._started + policy.deadline_seconds, clock)
            if policy.deadline_seconds is not None
            else None
        )
        self._lock = threading.Lock()
        self._source_failures = 0
        self._deadline_noted = False
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

        Base queries run serially and outside the failure budget: without
        certain answers there is nothing to degrade *to*.  When the width
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

        Failed steps are absorbed (recorded, counted, skipped) or
        re-raised according to the policy; a blown deadline stops
        issuance — work in flight completes and merges, nothing new
        starts — and is noted exactly once.

        *drained* is the caller's promise to consume every outcome.  When
        the width is not pinned, a drained plan fans out if the base call
        mostly waited and nothing can end the plan early or shed part of
        it: no deadline, no finite failure budget, no query budget
        declared by the source, and no bounded admission queue on the
        scheduler the calls go through.  Its width is then the plan
        length, capped by :data:`MAX_FAN_OUT_WIDTH`, the source's declared
        ``max_concurrent_requests`` and the scheduler's ``max_concurrent``
        for the source.  Any other plan runs one call at a time, so a lazy
        consumer never pays for calls it does not read.
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
    ) -> Iterator[tuple[PlannedQuery, Any]]:
        """Execute planned queries, yielding ``(step, row)`` as calls complete.

        The incremental tuple path behind the non-blocking operators
        (:mod:`repro.engine.operators`): instead of merging whole
        relations back in plan order, each source call's rows surface the
        moment that call returns — completion order across steps, source
        row order within a step.  A symmetric-hash join fed by this
        stream emits its first joined tuple as soon as a match exists,
        independent of the slowest source.

        Billing, telemetry, and failure absorption are identical to
        :meth:`stream` — every call is counted before it runs — but
        failures are absorbed in completion order, so under a failure
        *budget* the set of absorbed steps may be schedule-dependent
        (the strict policies the join processors run under are not
        affected: their first failure raises at any width).  Consumers
        must impose their own deterministic final order: rank at the
        end, stream in the middle.
        """
        for step, retrieved in self._run(list(plan), self._executor.map_completed):
            for row in retrieved:
                yield step, row

    def _run(
        self,
        steps: list[PlannedQuery],
        outcomes_of: Callable[[Iterable[ExecutionTask], Callable[[], bool]], Outcomes],
    ) -> Iterator[tuple[PlannedQuery, Relation]]:
        """The plan loop of both orders: run *steps* through *outcomes_of*
        (an executor's ``map`` or ``map_completed``) and yield each answered
        step with its relation, absorbing or raising failures."""
        if not steps:
            return
        halted = False

        def should_stop() -> bool:
            return halted or self.deadline_exceeded()

        # Each task's rank is its step's position, whatever order it ends in.
        tasks = (
            ExecutionTask(position, self._runner(step))
            for position, step in enumerate(steps)
        )
        outcomes = outcomes_of(tasks, should_stop)
        consumed = 0
        try:
            for outcome in outcomes:
                consumed += 1
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
                    halted = True
                    break
        finally:
            outcomes.close()
        if consumed < len(steps) and not halted and self.deadline_exceeded():
            self._note_deadline()

    def deadline_exceeded(self) -> bool:
        deadline = self._policy.deadline_seconds
        return deadline is not None and self._clock() - self._started > deadline

    def _fan_out_width(self, steps: int) -> int:
        """How many of a drained *steps*-long plan's calls to overlap.

        Overlapping pays only when the calls wait: on a source that
        computes in-process it adds threads to CPU work.  A plan that a
        deadline, a failure budget or a query budget can stop part-way
        must stay serial, or a wider window would put calls on the wire
        that a serial run never makes.  So must a plan whose calls queue
        for admission in a bounded queue: a serial plan holds one place in
        it, a fanned-out one up to its width, and the scheduler sheds the
        callers past the bound.
        """
        policy = self._policy
        capabilities = getattr(self._source, "capabilities", None)
        if (
            not self._base_waited
            or policy.deadline_seconds is not None
            or policy.max_source_failures is not None
            or getattr(capabilities, "query_budget", None) is not None
        ):
            return 1
        width = min(steps, MAX_FAN_OUT_WIDTH)
        declared = getattr(capabilities, "max_concurrent_requests", None)
        if declared is not None:
            width = min(width, declared)
        if self._scheduler is not None:
            admission = self._scheduler.state_for(self._source).policy
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
        if telemetry is not None:
            telemetry.count("mediator.queries_issued")
        attributes: dict[str, Any] = {"query": str(step.query)}
        if step.kind == QueryKind.REWRITTEN:
            attributes["precision"] = round(step.estimated_precision, 6)
        if step.source is not None:
            attributes["source"] = getattr(source, "name", "?")
        with maybe_span(
            telemetry,
            step.span_name(),
            _SPAN_KINDS[step.kind],
            parent=parent,
            **attributes,
        ) as span:
            retrieved = self._call_source(source, step)
            if span is not None:
                span.set(tuples=len(retrieved))
        with self._lock:
            self.stats.tuples_retrieved += len(retrieved)
        if telemetry is not None:
            telemetry.count("mediator.tuples_retrieved", len(retrieved))
        return retrieved

    def _call_source(self, source: Any, step: PlannedQuery) -> Relation:
        """Put one planned call on the wire, via the scheduler when present.

        The thunk carries the engine's deadline as ambient state so
        layers beneath the call (retry backoff sleeps) see the same
        budget the engine enforces between calls, on executor worker
        threads as well as the caller's.  The scheduler runs an admitted
        thunk exactly once; a dedup follower shares its leader's wire
        call instead.
        """
        if step.kind == QueryKind.MULTI_NULL:
            operation = f"null-binding:{step.max_nulls}"

            def perform() -> Relation:
                return source.execute_null_binding(step.query, max_nulls=step.max_nulls)
        else:
            operation = "execute"

            def perform() -> Relation:
                return source.execute(step.query)

        def thunk() -> Relation:
            with deadline_scope(self._deadline):
                return perform()

        scheduler = self._scheduler
        if scheduler is None:
            return thunk()
        return scheduler.call(
            source,
            step.query,
            operation,
            thunk,
            deadline=self._deadline,
        )

    # ------------------------------------------------------------------ #
    # Policy enforcement (absorbed in plan-merge order, so failure
    # semantics do not depend on the execution strategy)

    def _absorb(self, step: PlannedQuery, error: BaseException) -> str:
        if step.required:
            # Required steps are exempt from every absorption rule: their
            # failure is the retrieval's failure (counterfactual baselines).
            return _RAISE
        if isinstance(error, NullBindingError) and step.kind == QueryKind.MULTI_NULL:
            # A capability gap, not a failure: the attempt was billed (the
            # source's own log records the rejection) but lost no answers.
            return _CONTINUE
        failure_query = None if step.kind == QueryKind.MULTI_NULL else step.query
        if isinstance(error, QueryBudgetExceededError):
            self.stats.record_failure(
                failure_query, FailureKind.BUDGET_EXHAUSTED, str(error)
            )
            self.degraded = True
            if self._telemetry is not None:
                self._telemetry.count("mediator.budget_exhausted")
            if self._policy.tolerate_budget_exhaustion:
                return _HALT  # degrade gracefully: ship what we have
            return _RAISE
        if isinstance(error, AdmissionRejectedError):
            # Load shedding: the scheduler refused to queue the call.
            # Absorbed under the same failure budget as transient source
            # errors — the plan degrades instead of failing outright —
            # but counted separately so congestion is visible as such.
            with self._lock:
                self._source_failures += 1
                failures = self._source_failures
            self.stats.record_failure(
                failure_query, FailureKind.ADMISSION_REJECTED, str(error)
            )
            self.degraded = True
            if self._telemetry is not None:
                self._telemetry.count("mediator.load_shed")
            budget = self._policy.max_source_failures
            if budget is not None and failures > budget:
                return _RAISE
            logger.info(
                "planned query %r was load-shed by the source scheduler; "
                "continuing with the remaining plan", step.query,
            )
            return _CONTINUE
        if isinstance(error, DeadlineExceededError):
            # A layer below the engine (admission wait, retry backoff,
            # dedup follower timeout) hit the propagated deadline.  Note
            # it once and halt: nothing later in the plan can be
            # admitted either.
            self._note_deadline()
            return _HALT
        if isinstance(error, SourceUnavailableError):
            with self._lock:
                self._source_failures += 1
                failures = self._source_failures
            self.stats.record_failure(
                failure_query, FailureKind.SOURCE_UNAVAILABLE, str(error)
            )
            self.degraded = True
            if self._telemetry is not None:
                self._telemetry.count("mediator.source_failures")
            budget = self._policy.max_source_failures
            if budget is not None and failures > budget:
                return _RAISE
            logger.info(
                "planned query %r failed transiently (%s); continuing "
                "with the remaining plan", step.query, error,
            )
            return _CONTINUE  # skip this step, the rest of the plan stands
        return _RAISE

    def _note_deadline(self) -> None:
        """Record the blown deadline; raise when strict mode demands it.

        Noted at most once per retrieval: a deadline error absorbed from
        a plan step and the post-stream deadline check must not produce
        two failure records for the same spent budget.
        """
        with self._lock:
            if self._deadline_noted:
                return
            self._deadline_noted = True
        elapsed = self._clock() - self._started
        message = (
            f"retrieval for {self._label} exceeded its deadline of "
            f"{self._policy.deadline_seconds}s after {elapsed:.3f}s"
        )
        self.stats.record_failure(None, FailureKind.DEADLINE, message)
        if self._telemetry is not None:
            self._telemetry.count("mediator.deadline_exceeded")
        self.degraded = True
        if not self._policy.tolerate_deadline_exceeded:
            raise DeadlineExceededError(message)
        logger.info("%s; returning a degraded result", message)
