"""The optional telemetry hook threaded through the mediator stack.

One :class:`Telemetry` object bundles a :class:`~repro.telemetry.Tracer`
and a :class:`~repro.telemetry.MetricsRegistry` behind the single
``telemetry=`` parameter that :class:`~repro.core.QpiadMediator`, the
other mediators and every source wrapper accept.

The contract that keeps instrumentation honest about cost: **every emit
site is guarded by a plain ``None`` check**.  A pipeline built without
telemetry pays one pointer comparison per would-be event — no allocation,
no string formatting, no clock read (``tests/telemetry/test_disabled_is_free.py``
checks it; perfbench's ``trace.overhead`` sizes the enabled cost).
:func:`maybe_span` packages the guard for spans with a constant name; a site
whose span name or attributes must be formatted opens the span behind its
own ``None`` check instead.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Span, SpanContext, Tracer

__all__ = ["Telemetry", "maybe_span", "timed_first"]

T = TypeVar("T")


class Telemetry:
    """Tracer + metrics behind one handle.

    Parameters
    ----------
    clock:
        Monotonic time source backing every span timing and latency
        histogram; tests drive a manual clock, production uses
        ``time.monotonic``.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()

    def span(
        self, name: str, kind: str, *, parent: Span | None = None, **attributes: Any
    ) -> SpanContext:
        """A context-managed span whose duration also feeds a histogram.

        Every finished span records its latency under
        ``span.<kind>.seconds``, so per-kind latency distributions come
        for free with tracing.  *parent* overrides the default parent, the
        calling thread's innermost open span (see :meth:`Tracer.start`).
        """
        return SpanContext(
            self.tracer,
            name,
            kind,
            attributes,
            on_finish=self._record_latency,
            parent=parent,
        )

    def _record_latency(self, span: Span) -> None:
        self.metrics.observe(f"span.{span.kind}.seconds", span.duration)

    def count(self, name: str, amount: float = 1) -> None:
        self.metrics.count(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def snapshot(self) -> dict:
        """JSON-ready spans + metrics (see :mod:`repro.telemetry.export`)."""
        from repro.telemetry.export import telemetry_snapshot

        return telemetry_snapshot(self)

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()


class _NullSpanContext:
    """The disabled-telemetry stand-in: enters to ``None``, records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


def maybe_span(
    telemetry: "Telemetry | None",
    name: str,
    kind: str,
    *,
    parent: Span | None = None,
    **attributes: Any,
):
    """``telemetry.span(...)`` when enabled; a shared no-op context otherwise.

    The body receives the :class:`Span` (or ``None``), so optional
    attribute attachment stays a guarded one-liner::

        with maybe_span(telemetry, "base-query", SpanKind.BASE_QUERY) as span:
            result = source.execute(query)
            if span is not None:
                span.set(tuples=len(result))
    """
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, kind, parent=parent, **attributes)


def timed_first(
    stream: Iterable[T], telemetry: "Telemetry | None", metric: str
) -> Iterator[T]:
    """Yield *stream* unchanged, observing the latency to its first item.

    The telemetry's clock starts when the first item is requested; the
    seconds until it arrives feed the *metric* histogram once.  A stream
    that ends empty observes nothing; with no telemetry, no clock is read.
    The streaming join reports its time to first answer this way.
    """
    if telemetry is None:
        yield from stream
        return
    started = telemetry.clock()
    items = iter(stream)
    for first in items:
        telemetry.observe(metric, telemetry.clock() - started)
        yield first
        break
    yield from items
