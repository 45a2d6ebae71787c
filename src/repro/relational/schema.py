"""Schemas for the relational substrate.

A :class:`Schema` is an ordered collection of named :class:`Attribute`\\ s.
Attributes carry a logical type used by the query layer to validate
predicates (e.g. ``between`` only applies to numeric attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError

__all__ = ["AttributeType", "Attribute", "Schema"]


class AttributeType(Enum):
    """Logical type of an attribute's domain."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TEXT = "text"


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    Parameters
    ----------
    name:
        Attribute name; must be non-empty and unique within a schema.
    type:
        Logical :class:`AttributeType`; defaults to categorical, which is the
        common case in the paper's web databases (Make, Model, Body Style...).
    """

    name: str
    type: AttributeType = AttributeType.CATEGORICAL

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


class Schema:
    """An ordered, immutable sequence of attributes with name lookup.

    Examples
    --------
    >>> schema = Schema.of("make", "model", ("price", AttributeType.NUMERIC))
    >>> schema.index_of("model")
    1
    >>> schema.is_numeric("price")
    True
    """

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema requires at least one attribute")
        index: dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if not isinstance(attribute, Attribute):
                raise SchemaError(f"expected Attribute, got {type(attribute).__name__}")
            if attribute.name in index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = position
        self._attributes = attrs
        self._index = index

    @classmethod
    def of(cls, *specs: "str | tuple[str, AttributeType] | Attribute") -> "Schema":
        """Build a schema from terse specs.

        Each spec may be a bare name (categorical), a ``(name, type)`` pair,
        or a ready-made :class:`Attribute`.
        """
        attributes: list[Attribute] = []
        for spec in specs:
            if isinstance(spec, Attribute):
                attributes.append(spec)
            elif isinstance(spec, str):
                attributes.append(Attribute(spec))
            else:
                name, attr_type = spec
                attributes.append(Attribute(name, attr_type))
        return cls(attributes)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self._attributes)

    def index_of(self, name: str) -> int:
        """Return the column position of *name*, raising if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {', '.join(self.names)}"
            ) from None

    def indices_of(self, names: Sequence[str]) -> tuple[int, ...]:
        """Column positions for several attribute names, in the given order."""
        return tuple(self.index_of(name) for name in names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, key: "int | str") -> Attribute:
        if isinstance(key, str):
            return self._attributes[self.index_of(key)]
        return self._attributes[key]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{attribute.name}:{attribute.type.value}" for attribute in self._attributes
        )
        return f"Schema({parts})"

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only *names*, in the given order."""
        return Schema(self[name] for name in names)

    def is_numeric(self, name: str) -> bool:
        return self[name].type is AttributeType.NUMERIC
