"""Exception hierarchy for the QPIAD reproduction.

All library-raised exceptions derive from :class:`QpiadError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class QpiadError(Exception):
    """Base class for every exception raised by this package."""


class SchemaError(QpiadError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class QueryError(QpiadError):
    """A query is malformed or references attributes absent from a schema."""


class CapabilityError(QpiadError):
    """An autonomous source rejected a query its interface cannot express.

    This models the web-form restrictions of autonomous databases: binding
    NULL values, constraining unsupported attributes, or exceeding the
    source's query budget all surface as :class:`CapabilityError`.
    """


class QueryBudgetExceededError(CapabilityError):
    """The per-session query budget of an autonomous source was exhausted."""


class NullBindingError(CapabilityError):
    """A query attempted to bind NULL, which web forms do not support."""


class UnsupportedAttributeError(CapabilityError):
    """A query constrained an attribute missing from the source's schema."""


class SourceUnavailableError(QpiadError):
    """A source failed transiently (timeout, 5xx, connection reset).

    Unlike :class:`CapabilityError` — which means the query can *never*
    succeed — this failure says nothing about the query itself: a
    degrading retrieval skips the call and keeps what it has, a strict
    one raises.
    """


class AdmissionRejectedError(QpiadError):
    """The source scheduler shed this call instead of queueing it.

    Raised by :class:`repro.resilience.SourceScheduler` when a source's
    bounded admission queue is already full: admitting one more caller
    would only grow the backlog, so the scheduler fails the call
    immediately (load shedding).  Deliberately *not* a
    :class:`SourceUnavailableError` — the source itself is healthy, the
    mediator-side admission queue is the resource that ran out — so the
    engine records it under its own failure kind, ``admission-rejected``.
    Otherwise it handles it as it does transient source errors: a
    degrading retrieval skips the call, a strict one raises.
    """


class MiningError(QpiadError):
    """Knowledge mining failed (e.g. empty sample, no usable AFD)."""


class ClassifierError(MiningError):
    """A classifier could not be trained or applied."""


class RewritingError(QpiadError):
    """Query rewriting could not produce any rewritten queries."""
