"""Shared resilience layer: admission control.

Where ``repro.sources`` wraps *one* source with per-call behaviour (a
cache, injected faults), this package coordinates *across* callers: a
process-wide :class:`SourceScheduler` that every engine routes source
calls through, with :class:`TokenBucket` pacing.  See
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

__all__ = [
    "TokenBucket",
    "SourcePolicy",
    "SourceScheduler",
    "install_scheduler",
    "current_scheduler",
    "scheduler_scope",
    "source_name",
]
