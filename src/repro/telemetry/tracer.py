"""Structured tracing of mediated retrievals.

A mediated query is a small distributed plan: one base query and a ranked
batch of rewritten queries, each of them a billable call against a
rate-limited autonomous source.  The :class:`Tracer` records that plan as
a tree of :class:`Span` objects — one span per source call, nested under
one retrieval-level root — with timings taken from an injectable clock so
tests and simulations never depend on wall time.

The tracer is deliberately tiny: spans are plain mutable dataclasses,
parentage comes from a stack of open spans kept per thread, and nothing
is sampled or dropped.  Work handed to another thread names its parent
explicitly (``start(..., parent=tracer.current())`` captured where the
work was submitted), so a call run on a pool thread still nests under the
retrieval that issued it.  Export (text trees, JSON) lives in
:mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["SpanKind", "Span", "SpanContext", "Tracer"]


class SpanKind:
    """String constants classifying what a span measures."""

    RETRIEVAL = "retrieval"  # one whole mediated query (the root)
    PLAN = "plan"  # one planner build (rewrite generation + ranking + gating)
    BASE_QUERY = "base-query"  # the user's original query against the source
    REWRITTEN_QUERY = "rewritten-query"  # one AFD-rewritten probe
    RELAXED_QUERY = "relaxed-query"  # one influence-guided relaxation probe
    NULL_BINDING = "null-binding"  # the baselines' counterfactual NULL fetch
    REFRESH = "knowledge-refresh"  # one knowledge refresh (a re-mine)

    ALL = (
        RETRIEVAL,
        PLAN,
        BASE_QUERY,
        REWRITTEN_QUERY,
        RELAXED_QUERY,
        NULL_BINDING,
        REFRESH,
    )

    # The kinds that correspond to exactly one source call each.
    SOURCE_CALLS = (BASE_QUERY, REWRITTEN_QUERY, RELAXED_QUERY, NULL_BINDING)


@dataclass
class Span:
    """One timed step of a retrieval plan.

    Attributes
    ----------
    span_id / parent_id:
        Tree structure; ``parent_id`` is ``None`` for roots.
    name:
        Human-readable label (usually the query being issued).
    kind:
        A :class:`SpanKind` constant.
    started / ended:
        Clock readings; ``ended`` stays ``None`` while the span is open.
    attributes:
        Free-form key/value payload (tuple counts, confidences, ...).
    status / error:
        ``"ok"`` normally; ``"error"`` plus the message when the spanned
        operation raised.
    """

    span_id: int
    parent_id: "int | None"
    name: str
    kind: str
    started: float
    attributes: dict[str, Any] = field(default_factory=dict)
    ended: "float | None" = None
    status: str = "ok"
    error: str = ""

    @property
    def finished(self) -> bool:
        return self.ended is not None

    @property
    def duration(self) -> float:
        """Seconds between start and finish (0.0 while still open)."""
        return 0.0 if self.ended is None else self.ended - self.started

    @property
    def failed(self) -> bool:
        return self.status == "error"

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes after the span has started."""
        self.attributes.update(attributes)
        return self


class Tracer:
    """Records spans with parentage and timings from an injectable clock.

    Parameters
    ----------
    clock:
        Monotonic time source; tests drive a manual clock, production
        uses ``time.monotonic``.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._spans: list[Span] = []
        # Open spans per thread (by thread ident), innermost last; a thread
        # with nothing open has no entry.
        self._open: dict[int, list[Span]] = {}
        self._next_id = 1
        # Concurrent engine threads open/close spans against one tracer;
        # id allocation, the span list and the stacks must stay consistent.
        self._lock = threading.Lock()

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in start order."""
        return tuple(self._spans)

    def roots(self) -> tuple[Span, ...]:
        return tuple(span for span in self._spans if span.parent_id is None)

    def children(self, parent: Span) -> tuple[Span, ...]:
        return tuple(
            span for span in self._spans if span.parent_id == parent.span_id
        )

    def by_kind(self, kind: str) -> tuple[Span, ...]:
        return tuple(span for span in self._spans if span.kind == kind)

    def current(self) -> "Span | None":
        """The innermost span open on the calling thread, if any."""
        with self._lock:
            stack = self._open.get(threading.get_ident())
            return stack[-1] if stack else None

    def start(
        self, name: str, kind: str, *, parent: "Span | None" = None, **attributes: Any
    ) -> Span:
        """Open a span under *parent*, by default the calling thread's
        innermost open span; it becomes the parent of spans this thread
        starts before its finish."""
        with self._lock:
            stack = self._open.setdefault(threading.get_ident(), [])
            if parent is None and stack:
                parent = stack[-1]
            span = Span(
                span_id=self._next_id,
                parent_id=None if parent is None else parent.span_id,
                name=name,
                kind=kind,
                started=self._clock(),
                attributes=dict(attributes),
            )
            self._next_id += 1
            self._spans.append(span)
            stack.append(span)
        return span

    def finish(self, span: Span, error: "BaseException | str | None" = None) -> Span:
        """Close *span*, recording an error status when one is given."""
        span.ended = self._clock()
        if error is not None:
            span.status = "error"
            span.error = str(error)
        with self._lock:
            # Normally the innermost span of this thread's stack; finishes
            # out of order or on another thread are tolerated.
            for ident, stack in self._open.items():
                if span in stack:
                    stack.remove(span)
                    if not stack:
                        del self._open[ident]
                    break
        return span

    def span(
        self, name: str, kind: str, *, parent: "Span | None" = None, **attributes: Any
    ) -> "SpanContext":
        """Context manager: start on enter, finish (capturing errors) on exit."""
        return SpanContext(self, name, kind, attributes, parent=parent)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._open.clear()
            self._next_id = 1


class SpanContext:
    """``with``-wrapper around one span; exceptions mark it failed and re-raise."""

    __slots__ = (
        "_tracer", "_name", "_kind", "_attributes", "_on_finish", "_parent", "span"
    )

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        kind: str,
        attributes: dict[str, Any],
        on_finish: "Callable[[Span], None] | None" = None,
        parent: "Span | None" = None,
    ):
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._attributes = attributes
        self._on_finish = on_finish
        self._parent = parent
        self.span: "Span | None" = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start(
            self._name, self._kind, parent=self._parent, **self._attributes
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.span is not None
        self._tracer.finish(self.span, error=exc)
        if self._on_finish is not None:
            self._on_finish(self.span)
        return False
