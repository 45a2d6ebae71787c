"""Exporters: span trees and metric tables as text or JSON.

Two formats, matching the two consumers:

* **text** — ``qpiad query --trace`` prints an indented
  span tree (durations, status, key attributes) followed by counter and
  histogram tables, for a human reading one retrieval;
* **JSON** — a stable, ``json``-serialisable snapshot for dashboards
  and for diffing chaos runs (``qpiad query --trace --json`` prints one).
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.telemetry import Telemetry
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "render_trace_text",
    "render_metrics_text",
    "render_telemetry_text",
    "telemetry_snapshot",
    "render_telemetry_json",
]


def _format_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    pairs = ", ".join(
        f"{key}={value}" for key, value in sorted(span.attributes.items())
    )
    return f"  {{{pairs}}}"


def _format_span(span: Span) -> str:
    timing = f"{span.duration * 1000:.3f}ms" if span.finished else "open"
    status = "" if span.status == "ok" else f"  ERROR: {span.error}"
    return f"[{span.kind}] {span.name}  {timing}{status}{_format_attributes(span)}"


def render_trace_text(tracer: Tracer) -> str:
    """The span forest as an indented tree, one span per line."""
    if not tracer.spans:
        return "(no spans recorded)"
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        lines.append("  " * depth + _format_span(span))
        for child in tracer.children(span):
            emit(child, depth + 1)

    for root in tracer.roots():
        emit(root, 0)
    return "\n".join(lines)


def render_metrics_text(metrics: MetricsRegistry) -> str:
    """Counter and histogram tables (empty string when nothing was recorded)."""
    from repro.evaluation.reporting import render_table

    sections: list[str] = []
    if metrics.counters:
        sections.append(
            render_table(
                ["counter", "value"],
                [[counter.name, counter.value] for counter in metrics.counters],
            )
        )
    if metrics.histograms:
        sections.append(
            render_table(
                ["histogram", "count", "mean", "min", "max"],
                [
                    [
                        histogram.name,
                        histogram.count,
                        f"{histogram.mean:.6f}",
                        f"{histogram.minimum:.6f}" if histogram.minimum is not None else "-",
                        f"{histogram.maximum:.6f}" if histogram.maximum is not None else "-",
                    ]
                    for histogram in metrics.histograms
                ],
            )
        )
    return "\n\n".join(sections)


def render_telemetry_text(telemetry: Telemetry) -> str:
    """Trace tree followed by metric tables — the ``qpiad query --trace`` output."""
    parts = [render_trace_text(telemetry.tracer)]
    metrics = render_metrics_text(telemetry.metrics)
    if metrics:
        parts.append(metrics)
    return "\n\n".join(parts)


def _span_payload(span: Span) -> dict[str, Any]:
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "started": span.started,
        "ended": span.ended,
        "duration_seconds": span.duration,
        "status": span.status,
        "error": span.error,
        "attributes": dict(span.attributes),
    }


def telemetry_snapshot(telemetry: Telemetry) -> dict[str, Any]:
    """Everything recorded so far as one JSON-ready dict."""
    return {
        "spans": [_span_payload(span) for span in telemetry.tracer.spans],
        "metrics": telemetry.metrics.snapshot(),
    }


def render_telemetry_json(telemetry: Telemetry, indent: "int | None" = 2) -> str:
    return json.dumps(telemetry_snapshot(telemetry), indent=indent, sort_keys=True)
