"""NULL-aware in-memory relational substrate.

This package provides the storage layer every other QPIAD component builds
on: typed schemas, immutable relations with SQL-like NULL semantics, CSV
round-tripping, and the columnar (numpy-backed) data plane behind the
:class:`Relation` facade.
"""

from repro.relational.columnar import Column, ColumnStore
from repro.relational.csvio import infer_schema, read_csv, write_csv
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.values import NULL, NullValue, coerce_value, is_null

__all__ = [
    "NULL",
    "NullValue",
    "coerce_value",
    "is_null",
    "Attribute",
    "AttributeType",
    "Schema",
    "Relation",
    "Row",
    "read_csv",
    "write_csv",
    "infer_schema",
    "Column",
    "ColumnStore",
]
