"""The columnar data plane: numpy-backed storage behind the Relation facade.

A :class:`ColumnStore` is the dictionary-encoded, array-backed image of one
:class:`~repro.relational.relation.Relation`: one int64 code array per
attribute (``-1`` marks NULL) plus a boolean NULL mask, with the distinct
values kept in a first-seen dictionary.  Stores are built lazily and
memoized by :meth:`Relation.columnar`, so row-oriented callers pay nothing.

The encoding preserves the substrate's exact semantics:

* **NULL tri-state** — NULL cells carry code ``-1`` and never participate in
  equality or range masks; the NULL mask is what the possible-answer logic
  consumes.
* **Python equality** — codes are assigned with an ordinary ``dict``, so two
  cells share a code exactly when ``==``/``hash`` say they are the same
  value (``1``, ``1.0`` and ``True`` collapse, just as they do in
  ``Relation.distinct_values`` and ``value_counts``).
* **Float exactness** — the numeric projection marks a dictionary entry
  usable by vectorized range comparison only when its ``float64`` image is
  exact (any float, or an int within ``±2**53``); everything else is
  evaluated per value in Python, so masks equal per-row evaluation bit for
  bit.

Every cell must be hashable: encoding raises :class:`SchemaError` naming the
attribute that holds an unhashable cell, so every column has codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.relational.values import NULL

if TYPE_CHECKING:
    from repro.relational.relation import Relation

__all__ = [
    "Column",
    "ColumnStore",
    "EXACT_INT_BOUND",
    "float64_exact",
]

#: Largest integer magnitude that float64 represents exactly (2**53).
EXACT_INT_BOUND = 2**53


def float64_exact(value: Any) -> bool:
    """Whether *value*'s ``float64`` image compares exactly like the value.

    True for every float (Python floats *are* float64) and for ints within
    ``±2**53``; bools count as the ints 0/1.  Values outside this set must be
    compared in Python to match per-row evaluation bit for bit.
    """
    if isinstance(value, float):
        return True
    if isinstance(value, int):  # bool is an int subclass and is exact
        return -EXACT_INT_BOUND <= value <= EXACT_INT_BOUND
    return False


class Column:
    """One attribute's cells in dictionary-encoded columnar form.

    Attributes
    ----------
    name:
        The attribute name.
    codes:
        int64 dictionary codes per row (``-1`` for NULL).
    null_mask:
        Boolean array marking NULL cells.
    values:
        The dictionary: distinct non-NULL values in first-seen order, so
        ``values[codes[i]]`` decodes row ``i``.
    """

    __slots__ = ("name", "codes", "null_mask", "values", "_code_map", "_numeric")

    def __init__(
        self,
        name: str,
        codes: NDArray[np.int64],
        null_mask: NDArray[np.bool_],
        values: tuple[Any, ...],
        code_map: "dict[Any, int]",
    ):
        self.name = name
        self.codes = codes
        self.null_mask = null_mask
        self.values = values
        self._code_map = code_map
        self._numeric: "tuple[NDArray[np.float64], NDArray[np.bool_]] | None" = None

    def __len__(self) -> int:
        return int(self.null_mask.shape[0])

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {len(self)} rows, {len(self.values)} distinct)"

    def code_of(self, value: Any) -> "int | None":
        """The dictionary code of *value*, or ``None`` when absent.

        Lookup uses ordinary dict semantics (hash + identity-or-equality),
        matching how cells were grouped during encoding.  Raises
        :class:`TypeError` for unhashable values — callers treat that as
        "evaluate per dictionary entry".
        """
        return self._code_map.get(value)

    def dictionary_numeric(self) -> "tuple[NDArray[np.float64], NDArray[np.bool_]]":
        """Per-dictionary-entry ``(float64 value, exactly-representable)`` arrays.

        Entry ``k`` is usable by vectorized numeric comparison only when
        ``exact[k]`` — i.e. the entry is an int/float whose float64 image is
        exact.  Everything else (strings in a mixed column, huge ints,
        Decimals...) must be evaluated per value in Python.  Computed lazily
        and memoized.
        """
        if self._numeric is None:
            count = len(self.values)
            numeric = np.zeros(count, dtype=np.float64)
            exact = np.zeros(count, dtype=np.bool_)
            for position, value in enumerate(self.values):
                if float64_exact(value):
                    numeric[position] = float(value)
                    exact[position] = True
            self._numeric = (numeric, exact)
        return self._numeric

    def gather_bool(self, per_value: NDArray[np.bool_]) -> NDArray[np.bool_]:
        """Scatter a per-dictionary-entry boolean to rows; NULL rows are False."""
        codes = self.codes
        if per_value.shape[0] == 0:
            return np.zeros(codes.shape[0], dtype=np.bool_)
        safe = np.where(codes >= 0, codes, 0)
        result: NDArray[np.bool_] = per_value[safe] & (codes >= 0)
        return result


def _encode_column(name: str, cells: "list[Any]") -> Column:
    """Dictionary-encode *cells*, minting codes in first-seen order."""
    code_map: dict[Any, int] = {}
    codes_list: list[int] = []
    append = codes_list.append
    try:
        for value in cells:
            if value is NULL:
                append(-1)
            else:
                code = code_map.get(value)
                if code is None:
                    code = len(code_map)
                    code_map[value] = code
                append(code)
    except TypeError:
        raise SchemaError(
            f"attribute {name!r} holds an unhashable {type(value).__name__} "
            "cell; relation cells must be hashable"
        ) from None
    codes = np.array(codes_list, dtype=np.int64)
    return Column(name, codes, codes < 0, tuple(code_map), code_map)


class ColumnStore:
    """The dictionary-encoded columnar image of one relation.

    Built once per relation (see :meth:`Relation.columnar`) and immutable
    afterwards; every vectorized consumer — predicate masks, TANE partition
    kernels, NBC count aggregation — reads the same store.
    """

    __slots__ = ("_schema", "_columns", "_length")

    def __init__(self, schema: Schema, columns: "dict[str, Column]", length: int):
        self._schema = schema
        self._columns = columns
        self._length = length

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[Any]]) -> "ColumnStore":
        """Encode row-major tuples (already NULL-coerced) into columns."""
        columns = {
            name: _encode_column(name, [row[position] for row in rows])
            for position, name in enumerate(schema.names)
        }
        return cls(schema, columns, len(rows))

    @classmethod
    def from_relation(cls, relation: "Relation") -> "ColumnStore":
        return cls.from_rows(relation.schema, relation.rows)

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> Column:
        """The encoded column for *name*, raising on unknown attributes."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; store has {', '.join(self._schema.names)}"
            ) from None

    def __repr__(self) -> str:
        return f"ColumnStore({self._schema!r}, {self._length} rows)"
