"""Execution policies: the *how much to tolerate* of a retrieval.

These knobs used to live (duplicated) on the mediator configs; the
engine reads them from one :class:`ExecutionPolicy` so the semantics —
what counts against the failure budget, when a deadline is checked, what
"tolerate" means — exist in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QpiadError

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Failure, deadline, and concurrency limits for one retrieval.

    Parameters
    ----------
    max_source_failures:
        Failure budget for transient errors on planned (non-base)
        queries: each one is absorbed and the plan continues, until this
        many have been absorbed — the next propagates.  ``None``
        tolerates any number; ``0`` restores strict all-or-nothing
        behaviour.  Base queries are never covered: without certain
        answers there is nothing to degrade *to*.
    deadline_seconds:
        Optional wall-clock budget for the whole retrieval, measured by
        the engine's injectable clock.  Checked between source calls — a
        call in flight is never interrupted; once exceeded, no further
        planned queries are issued.
    tolerate_budget_exhaustion:
        When the *source's* query budget runs out mid-plan, stop issuing
        and keep the answers gathered so far instead of propagating.
    tolerate_deadline_exceeded:
        When the deadline passes mid-plan, keep the answers gathered so
        far (flagged degraded) rather than raising
        :class:`~repro.errors.DeadlineExceededError`.
    max_concurrency:
        How many planned queries may be in flight at once.  An int pins
        the width: ``1`` is the historical serial loop, higher values run
        the thread-pool executor.  ``None`` (the default) leaves the width
        to the engine, which decides per retrieval: it overlaps a drained
        plan's calls only when the base call spent most of its time
        waiting on the source and nothing can end the plan early or shed
        part of it (see :meth:`~repro.engine.RetrievalEngine.stream`),
        and otherwise issues them one at a time.  Whatever the width, outcomes merge in plan
        order, so answers, order, and confidences are identical on a
        healthy source.
    """

    max_source_failures: int | None = None
    deadline_seconds: float | None = None
    tolerate_budget_exhaustion: bool = True
    tolerate_deadline_exceeded: bool = True
    max_concurrency: int | None = None

    def __post_init__(self) -> None:
        if self.max_source_failures is not None and self.max_source_failures < 0:
            raise QpiadError(
                f"max_source_failures must be non-negative, got "
                f"{self.max_source_failures}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise QpiadError(
                f"deadline_seconds must be non-negative, got {self.deadline_seconds}"
            )
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise QpiadError(
                f"max_concurrency must be at least 1, got {self.max_concurrency}"
            )

    @classmethod
    def strict(cls, max_concurrency: int = 1) -> ExecutionPolicy:
        """Propagate-everything policy: the first failure of any kind raises.

        This is the historical behaviour of the mediators that predate
        graceful degradation (correlated, join, aggregate processing).
        """
        return cls(
            max_source_failures=0,
            tolerate_budget_exhaustion=False,
            tolerate_deadline_exceeded=False,
            max_concurrency=max_concurrency,
        )
