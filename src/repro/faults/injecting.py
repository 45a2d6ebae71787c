"""A source wrapper that injects seeded faults for chaos testing.

QPIAD mediates *autonomous* web databases — exactly the kind of backend
that times out, drops connections mid-transfer, and rate-limits without
warning.  :class:`FaultInjectingSource` simulates that weather on top of
any :class:`~repro.sources.surface.Source` so the mediator's degradation
paths can be driven deterministically in tests, benchmarks, and the
``qpiad chaos`` smoke run.

It sits directly above the real source, so everything above it (other
wrappers, the scheduler, the mediator) sees exactly the failures a live
source would produce.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import SourceUnavailableError
from repro.faults.plan import FaultDecision, FaultEvent, FaultKind, FaultPlan, FaultStatistics
from repro.relational.relation import Relation
from repro.sources.surface import Source, SourceDecorator
from repro.telemetry import Telemetry

__all__ = ["FaultInjectingSource"]


class FaultInjectingSource(SourceDecorator):
    """Wrap a source and fail it on a deterministic, seeded schedule.

    Every call that reaches the source draws the next decision of the
    plan.  A call the inner source itself refuses (spent budget, NULL
    binding, unsupported attribute) is tallied as ``refused``: it is not
    a fault and records no event, but it keeps the outcome counters
    summing to ``statistics.calls``.

    Parameters
    ----------
    inner:
        Any :class:`~repro.sources.surface.Source`
        (:class:`~repro.sources.AutonomousSource` or another wrapper).
    plan:
        The seeded fault schedule; see :class:`~repro.faults.FaultPlan`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook; every injected
        fault counts as ``fault.injected`` plus a per-kind counter
        (``fault.unavailable``, ``fault.churn``, ...).  ``None`` emits
        nothing.
    """

    def __init__(
        self,
        inner: Source,
        plan: FaultPlan,
        telemetry: Telemetry | None = None,
    ):
        super().__init__(inner)
        self.plan = plan
        self._telemetry = telemetry
        self.statistics = FaultStatistics()
        # The concurrent executor calls into one wrapper from several
        # threads; the call counter and event log must stay exact for the
        # chaos suite's accounting invariant to hold.
        self._lock = threading.Lock()

    # -- fault core --------------------------------------------------------

    def _next_decision(self) -> "tuple[FaultDecision, int]":
        """The next call's fault decision plus its (atomic) call index."""
        with self._lock:
            index = self.statistics.calls
            self.statistics.calls += 1
        return self.plan.decide(index), index

    def _record(self, index: int, kind: str, operation: str, detail: str = "") -> None:
        with self._lock:
            self.statistics.events.append(FaultEvent(index, kind, operation, detail))
        if self._telemetry is not None:
            self._telemetry.count("fault.injected")
            self._telemetry.count(f"fault.{kind}")

    def _tally(self, **deltas: int) -> None:
        """Locked increments of the named statistics counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.statistics, name, getattr(self.statistics, name) + delta)

    def _call(self, operation: str, thunk: Callable[[], Any]) -> Any:
        decision, index = self._next_decision()
        if decision.kind == FaultKind.UNAVAILABLE:
            self._tally(unavailable=1)
            self._record(index, FaultKind.UNAVAILABLE, operation)
            raise SourceUnavailableError(
                f"injected fault: {self.inner.name!r} unavailable "
                f"(call {index}, {operation})"
            )
        try:
            result = thunk()
        except Exception:
            self._tally(refused=1)
            raise
        if decision.kind == FaultKind.CHURN:
            # The source did the work and charged its budget, but the
            # response never arrived.
            self._tally(churned=1)
            self._record(index, FaultKind.CHURN, operation, "budget charged")
            raise SourceUnavailableError(
                f"injected fault: response from {self.inner.name!r} lost after "
                f"execution (call {index}, {operation})"
            )
        # An int result (cardinality) cannot be truncated; it counts healthy.
        if decision.kind == FaultKind.TRUNCATE and isinstance(result, Relation):
            kept = int(len(result) * self.plan.truncate_fraction)
            dropped = len(result) - kept
            self._tally(truncated=1, tuples_dropped=dropped)
            self._record(index, FaultKind.TRUNCATE, operation, f"dropped {dropped} tuples")
            return result.take(kept)
        self._tally(healthy=1)
        return result

    def reset_statistics(self) -> None:
        """Reset fault accounting *and* the call counter: the schedule replays."""
        super().reset_statistics()
        self.statistics.reset()

    def __repr__(self) -> str:
        return (
            f"FaultInjectingSource({self.inner!r}, seed={self.plan.seed}, "
            f"{self.statistics.faults_injected}/{self.statistics.calls} calls faulted)"
        )
