"""Shared resilience layer: admission control and dedup.

Where ``repro.sources`` wraps *one* source with per-call policies (retry,
breaker, cache), this package coordinates *across* callers: a
process-wide :class:`SourceScheduler` that every engine routes source
calls through, plus the primitives it composes —
:class:`TokenBucket` pacing and :class:`SingleFlight` dedup.  See
``docs/robustness.md`` for how the layers stack.
"""

from repro.resilience.bucket import TokenBucket
from repro.resilience.scheduler import (
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
    "Flight",
    "SingleFlight",
    "SourcePolicy",
    "SourceScheduler",
    "install_scheduler",
    "current_scheduler",
    "scheduler_scope",
    "source_name",
]
