"""In-memory, NULL-aware relations.

A :class:`Relation` stores rows as tuples aligned with a :class:`Schema`.
It provides exactly the relational operations the QPIAD stack needs:
selection by arbitrary row predicate, projection (with and without
duplicates), distinct value enumeration, NULL bookkeeping, sampling support
and joins are layered on top by :mod:`repro.query.executor`.

Relations are *logically immutable*: all operations return new relations.
This mirrors the autonomous-database setting the paper targets — the
mediator may never modify the underlying data.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.relational.values import NULL, coerce_value, is_null

if TYPE_CHECKING:
    from repro.relational.columnar import ColumnStore

__all__ = ["Row", "Relation"]

Row = tuple  # rows are plain tuples aligned with the schema


def _canonical_cell(value: Any) -> str:
    """Canonical, type-tagged string encoding of one row value.

    Mirrors the scalar rules of :func:`repro.planner.fingerprint.stable_digest`
    so structurally different values never serialize to the same string
    (``1`` vs ``"1"``, ``NULL`` vs ``"NULL"``).
    """
    # Checked most-common-first (cells are mostly strings); bool must stay
    # ahead of int because bool is an int subclass.
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if value is None:
        return "~"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if is_null(value):
        return "N"
    encoded = repr(value)
    return f"r{len(encoded)}:{encoded}"


def _row_bytes(row: Row) -> bytes:
    return ("[" + ",".join(_canonical_cell(value) for value in row) + "]").encode(
        "utf-8"
    )


class Relation:
    """An immutable bag of rows over a fixed schema.

    Parameters
    ----------
    schema:
        Column layout of every row.
    rows:
        Iterable of sequences; each is coerced to a tuple and must match the
        schema's arity.  ``None`` and blank strings become :data:`NULL`.

    Examples
    --------
    >>> from repro.relational import Schema, Relation
    >>> cars = Relation(Schema.of("make", "model"),
    ...                 [("Honda", "Accord"), ("BMW", None)])
    >>> len(cars)
    2
    >>> cars.null_count("model")
    1
    """

    __slots__ = ("_schema", "_rows", "_columnar", "_digest")

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]] = ()):
        self._schema = schema
        arity = len(schema)
        materialized: list[Row] = []
        for raw in rows:
            row = tuple(coerce_value(value) for value in raw)
            if len(row) != arity:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema arity {arity}: {row!r}"
                )
            materialized.append(row)
        self._rows = tuple(materialized)
        self._columnar: "ColumnStore | None" = None
        self._digest: "Any | None" = None

    @classmethod
    def from_coerced(
        cls, schema: Schema, rows: Iterable[Row]
    ) -> "Relation":
        """Construct from rows that are already coerced and arity-checked.

        Trusted fast path for internal transforms whose inputs come out of
        an existing relation: skips per-cell :func:`coerce_value` and the
        arity check, which is safe exactly when every row is a tuple of
        already-normalized values with the schema's arity.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._rows = tuple(rows)
        relation._columnar = None
        relation._digest = None
        return relation

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> tuple[Row, ...]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and Counter(self._rows) == Counter(other._rows)

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, {len(self._rows)} rows)"

    def value(self, row: Row, attribute: str) -> Any:
        """The value of *attribute* in *row*."""
        return row[self._schema.index_of(attribute)]

    def column(self, attribute: str) -> tuple[Any, ...]:
        """All values (including NULLs) of one attribute, in row order."""
        index = self._schema.index_of(attribute)
        return tuple(row[index] for row in self._rows)

    def columnar(self) -> "ColumnStore":
        """The columnar (numpy-backed) image of this relation.

        Built lazily on first use and memoized — the relation is immutable,
        so the store never goes stale.  Row-oriented callers that never ask
        for it pay nothing.  Raises :class:`~repro.errors.SchemaError`
        naming the attribute when a cell is unhashable.
        """
        store = getattr(self, "_columnar", None)
        if store is None:
            from repro.relational.columnar import ColumnStore

            store = ColumnStore.from_relation(self)
            self._columnar = store
        return store

    def content_digest(self) -> str:
        """Order-sensitive SHA-256 over schema and rows (hex), memoized.

        The underlying chain is *foldable*: :meth:`concat` seeds the
        union's hash state from this relation's and hashes only the
        appended rows, so a knowledge refresh fingerprints its grown
        sample in O(batch) — while staying bit-identical to hashing the
        union from scratch (row order is part of the digest).
        """
        return self._digest_state().hexdigest()

    def _digest_state(self) -> Any:
        state = self._digest
        if state is None:
            state = hashlib.sha256()
            header = ",".join(
                f"{_canonical_cell(attribute.name)}:{attribute.type.value}"
                for attribute in self._schema
            )
            state.update(f"relation|{header}|".encode("utf-8"))
            for row in self._rows:
                state.update(_row_bytes(row))
            self._digest = state
        return state

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying an arbitrary row predicate."""
        return self._with_rows(row for row in self._rows if predicate(row))

    def select_indices(self, indices: Sequence[int]) -> "Relation":
        """Rows at *indices*, in the given order.

        This is the gather step of mask-based (columnar) selection: the
        executor computes a boolean mask over the store and hands the
        surviving row positions here.  ``itemgetter`` keeps the gather in C.
        """
        rows = self._rows
        if len(indices) == 0:
            return self._with_rows(())
        if len(indices) == 1:
            return self._with_rows((rows[indices[0]],))
        return self._with_rows(itemgetter(*indices)(rows))

    def project(self, names: Sequence[str], distinct: bool = False) -> "Relation":
        """Project onto *names*; optionally de-duplicate.

        Distinct projection preserves first-seen order, which keeps rewritten
        query generation deterministic.
        """
        indices = self._schema.indices_of(names)
        projected = (tuple(row[i] for i in indices) for row in self._rows)
        if distinct:
            seen: dict[Row, None] = {}
            for row in projected:
                seen.setdefault(row)
            result_rows: Iterable[Row] = seen.keys()
        else:
            result_rows = projected
        return Relation(self._schema.project(names), result_rows)

    def distinct_values(self, attribute: str, include_null: bool = False) -> list[Any]:
        """Distinct values of *attribute* in first-seen order."""
        index = self._schema.index_of(attribute)
        seen: dict[Any, None] = {}
        for row in self._rows:
            value = row[index]
            if is_null(value) and not include_null:
                continue
            seen.setdefault(value)
        return list(seen.keys())

    def value_counts(self, attribute: str, include_null: bool = False) -> Counter:
        """Multiplicity of each value of *attribute*."""
        index = self._schema.index_of(attribute)
        counts: Counter = Counter()
        for row in self._rows:
            value = row[index]
            if is_null(value) and not include_null:
                continue
            counts[value] += 1
        return counts

    def concat(self, other: "Relation") -> "Relation":
        """Union-all with another relation over an identical schema."""
        if other.schema != self._schema:
            raise SchemaError("cannot concat relations with different schemas")
        result = self._with_rows(self._rows + other._rows)
        if self._digest is not None:
            # Fold the digest chain forward: hash only the appended rows.
            state = self._digest.copy()
            for row in other._rows:
                state.update(_row_bytes(row))
            result._digest = state
        return result

    def take(self, count: int) -> "Relation":
        """The first *count* rows."""
        return self._with_rows(self._rows[:count])

    # ------------------------------------------------------------------
    # NULL bookkeeping (Table 1 statistics)
    # ------------------------------------------------------------------

    def is_complete_row(self, row: Row) -> bool:
        """True if the row has no NULL in any attribute (Definition 1)."""
        return not any(is_null(value) for value in row)

    def null_count(self, attribute: str) -> int:
        """Number of rows where *attribute* is NULL."""
        index = self._schema.index_of(attribute)
        return sum(1 for row in self._rows if is_null(row[index]))

    def null_fraction(self, attribute: str) -> float:
        """Fraction of rows where *attribute* is NULL (0.0 on empty)."""
        if not self._rows:
            return 0.0
        return self.null_count(attribute) / len(self._rows)

    def incomplete_count(self) -> int:
        """How many rows have at least one NULL."""
        return sum(1 for row in self._rows if not self.is_complete_row(row))

    def incomplete_fraction(self) -> float:
        """Fraction of rows with at least one NULL (0.0 on empty)."""
        if not self._rows:
            return 0.0
        return self.incomplete_count() / len(self._rows)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def head(self, count: int = 10) -> str:
        """A small ASCII rendering of the first *count* rows."""
        names = self._schema.names
        shown = [tuple(str(value) for value in row) for row in self._rows[:count]]
        widths = [len(name) for name in names]
        for row in shown:
            widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
        header = " | ".join(name.ljust(width) for name, width in zip(names, widths))
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in shown
        ]
        footer = [] if len(self._rows) <= count else [f"... ({len(self._rows)} rows total)"]
        return "\n".join([header, rule, *body, *footer])

    # ------------------------------------------------------------------

    def _with_rows(self, rows: Iterable[Row]) -> "Relation":
        relation = Relation.__new__(Relation)
        relation._schema = self._schema
        relation._rows = tuple(rows)
        relation._columnar = None
        relation._digest = None
        return relation
