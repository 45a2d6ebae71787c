"""The source surface: the one interface a mediator reaches a source through.

QPIAD's mediator may query an autonomous database only through its
restricted interface (paper §1): it cannot modify the source, cannot bind
NULL unless the form allows it, and is rate-limited.  :class:`Source`
declares that interface once; every parameter that accepts any source —
an :class:`~repro.sources.AutonomousSource` or a wrapper stack around one
— is typed with it.  :class:`SourceDecorator` is the base of every
wrapper: caching, fault injection and the test doubles.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.capabilities import SourceCapabilities

__all__ = ["Source", "SourceDecorator"]


class Source(Protocol):
    """What a mediator may know about, and ask of, an autonomous source.

    ``name``, ``schema``, ``capabilities``, ``supports`` and
    ``can_answer`` are schema-level: they describe the interface and
    never contact the source.  ``cardinality``, ``execute`` and
    ``execute_null_binding`` reach the source, which may refuse them; the
    two queries count against its budget.  ``reset_statistics`` clears the
    statistics of this source and of every source it wraps.
    """

    @property
    def name(self) -> str: ...

    @property
    def schema(self) -> Schema: ...

    @property
    def capabilities(self) -> SourceCapabilities: ...

    def supports(self, attribute: str) -> bool: ...

    def can_answer(self, query: SelectionQuery) -> bool: ...

    def cardinality(self) -> int: ...

    def execute(self, query: SelectionQuery) -> Relation: ...

    def execute_null_binding(
        self, query: SelectionQuery, max_nulls: int | None = None
    ) -> Relation: ...

    def reset_statistics(self) -> None: ...


class SourceDecorator:
    """A :class:`Source` that wraps another one.

    The schema-level members forward unchanged: a wrapper changes how a
    call is made, never what the source's interface could express (an
    injected outage, say, does not change what the form answers once the
    source recovers).  ``cardinality``, ``execute`` and
    ``execute_null_binding`` each pass through :meth:`_call` exactly once,
    under their own name.  A wrapper that acts on every call overrides
    :meth:`_call`; one that acts on a single call overrides that method.
    A wrapper with statistics of its own extends :meth:`reset_statistics`.
    """

    def __init__(self, inner: Source):
        self.inner = inner

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def schema(self) -> Schema:
        return self.inner.schema

    @property
    def capabilities(self) -> SourceCapabilities:
        return self.inner.capabilities

    def supports(self, attribute: str) -> bool:
        return self.inner.supports(attribute)

    def can_answer(self, query: SelectionQuery) -> bool:
        return self.inner.can_answer(query)

    def cardinality(self) -> int:
        return self._call("cardinality", self.inner.cardinality)

    def execute(self, query: SelectionQuery) -> Relation:
        return self._call("execute", lambda: self.inner.execute(query))

    def execute_null_binding(
        self, query: SelectionQuery, max_nulls: int | None = None
    ) -> Relation:
        return self._call(
            "execute_null_binding",
            lambda: self.inner.execute_null_binding(query, max_nulls=max_nulls),
        )

    def reset_statistics(self) -> None:
        self.inner.reset_statistics()

    def _call(self, operation: str, thunk: Callable[[], Any]) -> Any:
        """Make one call that reaches the source; *operation* names it."""
        return thunk()
