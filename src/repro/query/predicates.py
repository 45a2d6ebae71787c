"""Predicate AST for conjunctive selection queries.

QPIAD's query model (Section 4 of the paper) is conjunctions of per-attribute
constraints: equality on categorical attributes and equality / ranges on
numeric ones (e.g. ``Model=Accord AND Price BETWEEN 15000 AND 20000``).

Evaluation follows SQL three-valued logic collapsed to the two outcomes the
paper needs:

* :meth:`Predicate.matches` — the tuple *certainly* satisfies the predicate
  (NULL on a constrained attribute means "not a certain match").
* :meth:`Predicate.null_constrained` — which constrained attributes are NULL
  in the tuple.  Tuples whose only failures are NULLs are the paper's
  *possible answers* (Definition 2).

Each predicate also evaluates itself *vectorized* against a
:class:`~repro.relational.columnar.ColumnStore`: :meth:`Predicate.mask`
returns a boolean row mask of certain matches and
:meth:`Predicate.possible_mask` the certain-or-possible mask, both exactly
equivalent to the per-row methods, which stay the reference semantics.
Constants a dictionary lookup or a float64 comparison cannot handle
faithfully (unhashable values, ints beyond 2**53, strings against numbers)
are evaluated with :meth:`AttributePredicate.matches_value` once per
dictionary entry and gathered to rows, so every mask is total.
"""

from __future__ import annotations

import functools
import operator
from abc import ABC, abstractmethod
from decimal import InvalidOperation
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import QueryError
from repro.relational.columnar import float64_exact
from repro.relational.relation import Row
from repro.relational.schema import Schema
from repro.relational.values import NULL, is_null

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from repro.relational.columnar import Column, ColumnStore

__all__ = [
    "Predicate",
    "AttributePredicate",
    "Equals",
    "NotEquals",
    "Between",
    "Comparison",
    "OneOf",
    "And",
    "conjuncts_of",
]


class Predicate(ABC):
    """Base class of all predicate nodes."""

    @abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """Constrained attribute names, without duplicates, in AST order."""

    @abstractmethod
    def matches(self, row: Row, schema: Schema) -> bool:
        """True iff *row* certainly satisfies the predicate."""

    def null_constrained(self, row: Row, schema: Schema) -> tuple[str, ...]:
        """Constrained attributes whose value is NULL in *row*."""
        return tuple(
            name for name in self.attributes() if is_null(row[schema.index_of(name)])
        )

    def possibly_matches(self, row: Row, schema: Schema) -> bool:
        """True iff every conjunct either matches or is NULL-blocked.

        This is the certain-or-possible test: the row fails no conjunct on a
        *present* value.
        """
        for conjunct in conjuncts_of(self):
            if conjunct.matches(row, schema):
                continue
            if not conjunct.null_constrained(row, schema):
                return False
        return True

    # ------------------------------------------------------------------
    # Vectorized evaluation (columnar data plane)
    # ------------------------------------------------------------------

    @abstractmethod
    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        """Boolean row mask of certain matches.

        Exactly equivalent to calling :meth:`matches` on every row.
        """

    def null_any_mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        """Rows NULL on at least one constrained attribute.

        The returned array may alias column storage — treat it as read-only.
        """
        names = self.attributes()
        result = store.column(names[0]).null_mask
        for name in names[1:]:
            result = result | store.column(name).null_mask
        return result

    def possible_mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        """Certain-or-possible row mask.

        A row passes when every conjunct either matches or is NULL-blocked
        on one of its own attributes — exactly :meth:`possibly_matches`.
        """
        allowed = [
            conjunct.mask(store) | conjunct.null_any_mask(store)
            for conjunct in conjuncts_of(self)
        ]
        return functools.reduce(operator.and_, allowed)

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])


class AttributePredicate(Predicate):
    """A predicate constraining exactly one attribute."""

    __slots__ = ("attribute",)

    def __init__(self, attribute: str):
        if not attribute:
            raise QueryError("predicate attribute name must be non-empty")
        self.attribute = attribute

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    @abstractmethod
    def matches_value(self, value: Any) -> bool:
        """True iff a cell holding *value* certainly satisfies the predicate.

        *value* may be NULL; implementations apply SQL semantics (NULL never
        certainly matches).
        """

    def matches(self, row: Row, schema: Schema) -> bool:
        return self.matches_value(row[schema.index_of(self.attribute)])

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        """:meth:`matches_value` once per dictionary entry, gathered to rows.

        Cells share a dictionary code only when they are ``==`` (and hash
        equal), so one evaluation per entry decides every row holding it.
        Subclasses override this with array kernels and fall back to it for
        constants those kernels cannot compare exactly.
        """
        column = store.column(self.attribute)
        per_value = np.fromiter(
            map(self.matches_value, column.values),
            dtype=np.bool_,
            count=len(column.values),
        )
        return column.gather_bool(per_value)

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class Equals(AttributePredicate):
    """``attribute = value``; the workhorse predicate of the paper."""

    __slots__ = ("value",)

    def __init__(self, attribute: str, value: Any):
        super().__init__(attribute)
        if value is NULL or value is None:
            raise QueryError(
                f"cannot build an equality on NULL for {attribute!r}; autonomous "
                "sources do not support binding NULL (use possible-answer retrieval)"
            )
        self.value = value

    def matches_value(self, value: Any) -> bool:
        return not is_null(value) and value == self.value

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        column = store.column(self.attribute)
        codes = column.codes
        try:
            if self.value != self.value:
                # NaN: dictionary lookup would find an identical object, but
                # matches_value compares with ``==``, which NaN never passes.
                return np.zeros(codes.shape[0], dtype=np.bool_)
            code = column.code_of(self.value)
        except TypeError:
            return super().mask(store)
        if code is None:
            return np.zeros(codes.shape[0], dtype=np.bool_)
        result: "NDArray[np.bool_]" = codes == code
        return result

    def _key(self) -> tuple:
        return (self.attribute, self.value)

    def __repr__(self) -> str:
        return f"{self.attribute}={self.value!r}"


class NotEquals(AttributePredicate):
    """``attribute != value`` (NULL never certainly satisfies it)."""

    __slots__ = ("value",)

    def __init__(self, attribute: str, value: Any):
        super().__init__(attribute)
        self.value = value

    def matches_value(self, value: Any) -> bool:
        return not is_null(value) and value != self.value

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        column = store.column(self.attribute)
        codes = column.codes
        non_null: "NDArray[np.bool_]" = codes >= 0
        try:
            if self.value != self.value:
                # NaN (or NULL) constant: ``!=`` holds for every present value.
                return non_null
            code = column.code_of(self.value)
        except TypeError:
            return super().mask(store)
        if code is None:
            return non_null
        return non_null & (codes != code)

    def _key(self) -> tuple:
        return (self.attribute, self.value)

    def __repr__(self) -> str:
        return f"{self.attribute}!={self.value!r}"


#: Errors an ordering comparison raises for values that have no order: mixed
#: types raise TypeError, and a Decimal ordered against a NaN signals
#: InvalidOperation.  Such a value is never a certain range match.
_INCOMPARABLE = (TypeError, InvalidOperation)


class Between(AttributePredicate):
    """``attribute BETWEEN low AND high`` (inclusive on both ends)."""

    __slots__ = ("low", "high")

    def __init__(self, attribute: str, low: Any, high: Any):
        super().__init__(attribute)
        try:
            reversed_bounds = low > high
        except _INCOMPARABLE:
            raise QueryError(
                f"between bounds for {attribute!r} are not comparable: {low!r}, {high!r}"
            ) from None
        if reversed_bounds:
            raise QueryError(f"between bounds reversed for {attribute!r}: {low!r} > {high!r}")
        self.low = low
        self.high = high

    def matches_value(self, value: Any) -> bool:
        if is_null(value):
            return False
        try:
            return bool(self.low <= value <= self.high)
        except _INCOMPARABLE:
            return False

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        if not (float64_exact(self.low) and float64_exact(self.high)):
            return super().mask(store)
        column = store.column(self.attribute)
        values, exact = column.dictionary_numeric()
        per_value = (self.low <= values) & (values <= self.high) & exact
        return _patch_inexact(per_value, exact, column, self.matches_value)

    def _key(self) -> tuple:
        return (self.attribute, self.low, self.high)

    def __repr__(self) -> str:
        return f"{self.attribute} between {self.low!r} and {self.high!r}"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(AttributePredicate):
    """``attribute <op> value`` for ``<``, ``<=``, ``>``, ``>=``."""

    __slots__ = ("op", "value")

    def __init__(self, attribute: str, op: str, value: Any):
        super().__init__(attribute)
        if op not in _COMPARATORS:
            raise QueryError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.value = value

    def matches_value(self, value: Any) -> bool:
        if is_null(value):
            return False
        try:
            return bool(_COMPARATORS[self.op](value, self.value))
        except _INCOMPARABLE:
            return False

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        if not float64_exact(self.value):
            return super().mask(store)
        column = store.column(self.attribute)
        values, exact = column.dictionary_numeric()
        per_value = _COMPARATORS[self.op](values, self.value) & exact
        return _patch_inexact(per_value, exact, column, self.matches_value)

    def _key(self) -> tuple:
        return (self.attribute, self.op, self.value)

    def __repr__(self) -> str:
        return f"{self.attribute}{self.op}{self.value!r}"


class OneOf(AttributePredicate):
    """``attribute IN (values)``; used by workload generators."""

    __slots__ = ("values",)

    def __init__(self, attribute: str, values: Iterable[Any]):
        super().__init__(attribute)
        self.values = frozenset(values)
        if not self.values:
            raise QueryError(f"OneOf on {attribute!r} requires at least one value")
        if any(value is NULL or value is None for value in self.values):
            raise QueryError(f"OneOf on {attribute!r} cannot include NULL")

    def matches_value(self, value: Any) -> bool:
        return not is_null(value) and value in self.values

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        column = store.column(self.attribute)
        codes = column.codes
        wanted = [code for code in map(column.code_of, self.values) if code is not None]
        if not wanted:
            return np.zeros(codes.shape[0], dtype=np.bool_)
        if len(wanted) == 1:
            result: "NDArray[np.bool_]" = codes == wanted[0]
            return result
        return np.isin(codes, np.array(wanted, dtype=np.int64))

    def _key(self) -> tuple:
        return (self.attribute, self.values)

    def __repr__(self) -> str:
        rendered = ", ".join(sorted(map(repr, self.values)))
        return f"{self.attribute} in ({rendered})"


class And(Predicate):
    """Conjunction of predicates; nested conjunctions are flattened."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Predicate]):
        flattened: list[Predicate] = []
        seen: set[Predicate] = set()
        for part in parts:
            for conjunct in (part.parts if isinstance(part, And) else (part,)):
                # Conjunction is idempotent: drop exact duplicates (keeps
                # rewritten queries readable when a determining attribute is
                # also an original constraint).
                if conjunct in seen:
                    continue
                seen.add(conjunct)
                flattened.append(conjunct)
        if not flattened:
            raise QueryError("a conjunction requires at least one predicate")
        self.parts = tuple(flattened)

    def attributes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for part in self.parts:
            for name in part.attributes():
                seen.setdefault(name)
        return tuple(seen.keys())

    def matches(self, row: Row, schema: Schema) -> bool:
        return all(part.matches(row, schema) for part in self.parts)

    def mask(self, store: "ColumnStore") -> "NDArray[np.bool_]":
        result = self.parts[0].mask(store)
        for part in self.parts[1:]:
            result = result & part.mask(store)
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))

    def __repr__(self) -> str:
        return " AND ".join(map(repr, self.parts))


def _patch_inexact(
    per_value: "NDArray[np.bool_]",
    exact: "NDArray[np.bool_]",
    column: "Column",
    matches_value: Callable[[Any], bool],
) -> "NDArray[np.bool_]":
    """Finish a dictionary-level range mask and scatter it to rows.

    Entries whose float64 image is inexact (strings in a mixed column, huge
    ints...) are re-evaluated with the exact Python predicate so the mask is
    bit-identical to per-row evaluation.
    """
    if not bool(exact.all()):
        for position in np.flatnonzero(~exact).tolist():
            per_value[position] = matches_value(column.values[position])
    return column.gather_bool(per_value)


def conjuncts_of(predicate: Predicate) -> tuple[Predicate, ...]:
    """The top-level conjuncts of *predicate* (itself if not a conjunction)."""
    if isinstance(predicate, And):
        return predicate.parts
    return (predicate,)
