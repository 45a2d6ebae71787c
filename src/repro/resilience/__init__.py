"""Shared resilience layer: admission control, dedup, deadlines.

Where ``repro.sources`` wraps *one* source with per-call policies (retry,
breaker, cache), this package coordinates *across* callers: a
process-wide :class:`SourceScheduler` that every engine routes source
calls through, plus the primitives it composes —
:class:`TokenBucket` pacing, :class:`SingleFlight` dedup, and
:class:`Deadline` propagation.  See ``docs/robustness.md`` for how the
layers stack.
"""

from repro.resilience.bucket import TokenBucket
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    remaining_deadline,
)
from repro.resilience.scheduler import (
    SchedulerConfig,
    SourcePolicy,
    SourceScheduler,
    current_scheduler,
    install_scheduler,
    scheduler_scope,
    source_name,
)
from repro.resilience.singleflight import Flight, SingleFlight

__all__ = [
    "TokenBucket",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "remaining_deadline",
    "Flight",
    "SingleFlight",
    "SourcePolicy",
    "SchedulerConfig",
    "SourceScheduler",
    "install_scheduler",
    "current_scheduler",
    "scheduler_scope",
    "source_name",
]
