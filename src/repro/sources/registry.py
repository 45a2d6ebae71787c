"""Mediator-side registry of autonomous sources and the global schema.

Section 4.3 of the paper considers a mediator exporting a *global schema*
over sources whose *local schemas* may lack some global attributes
(Yahoo! Autos has no ``Body Style``).  The registry answers the two
questions the correlated-source machinery needs:

* which sources support a given attribute, and
* which sources do *not* (and hence need cross-source rewriting).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.sources.surface import Source

__all__ = ["SourceRegistry"]


class SourceRegistry:
    """Named collection of sources under one global schema.

    Parameters
    ----------
    global_schema:
        The mediator's exported schema.  Every source's local schema must be
        a subset of it (same attribute names; mapping heterogeneous names is
        assumed to be handled upstream by the schema-alignment layer, which
        is out of scope for the paper).
    sources:
        Initial sources to register.
    """

    def __init__(
        self, global_schema: Schema, sources: Iterable[Source] = ()
    ):
        self.global_schema = global_schema
        self._sources: dict[str, Source] = {}
        for source in sources:
            self.register(source)

    def register(self, source: Source) -> None:
        """Add *source*, validating its local schema against the global one."""
        if source.name in self._sources:
            raise SchemaError(f"source {source.name!r} is already registered")
        for name in source.schema.names:
            if name not in self.global_schema:
                raise SchemaError(
                    f"source {source.name!r} exposes attribute {name!r} which is "
                    "not in the global schema"
                )
        self._sources[source.name] = source

    def __iter__(self) -> Iterator[Source]:
        return iter(self._sources.values())

    def supporting(self, attribute: str) -> list[Source]:
        """Sources whose local schema includes *attribute*."""
        return [source for source in self if source.supports(attribute)]
