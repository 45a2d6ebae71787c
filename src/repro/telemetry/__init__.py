"""Structured tracing + metrics for the QPIAD mediator stack.

The third leg of the repo's correctness tooling (after ``repro.analysis``
linting and ``repro.faults`` chaos testing): an optional, injectable
observability layer that makes the mediator's cost accounting *visible*.
Every source call in a mediated retrieval becomes a
:class:`~repro.telemetry.Span`; counters and histograms in a
:class:`~repro.telemetry.MetricsRegistry` track queries issued, tuples
retrieved, cache hit rates, admission outcomes and fault events.

Pass a :class:`Telemetry` to ``QpiadMediator``, ``JoinProcessor`` or
any source wrapper (``telemetry=...``); leave it ``None`` (the default)
and every emit site reduces to a single ``None`` check.  See
``docs/observability.md``.
"""

from repro.telemetry.export import (
    render_metrics_text,
    render_telemetry_json,
    render_telemetry_text,
    render_trace_text,
    telemetry_snapshot,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.telemetry import Telemetry, maybe_span, timed_first
from repro.telemetry.tracer import Span, SpanContext, SpanKind, Tracer

__all__ = [
    "SpanKind",
    "Span",
    "SpanContext",
    "Tracer",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "maybe_span",
    "timed_first",
    "render_trace_text",
    "render_metrics_text",
    "render_telemetry_text",
    "telemetry_snapshot",
    "render_telemetry_json",
]
