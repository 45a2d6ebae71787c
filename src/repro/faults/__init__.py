"""Deterministic fault injection for chaos-testing the mediator stack.

See ``docs/robustness.md`` for where the injecting wrapper sits in the
source stack and for the mediator's degraded-result semantics.
"""

from repro.faults.injecting import FaultInjectingSource
from repro.faults.plan import (
    FaultDecision,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultStatistics,
)

__all__ = [
    "FaultKind",
    "FaultDecision",
    "FaultEvent",
    "FaultPlan",
    "FaultStatistics",
    "FaultInjectingSource",
]
