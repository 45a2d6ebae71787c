"""Discretization of numeric attributes for dependency mining.

AFDs and Naive Bayes both operate on categorical values.  Web-database
attributes like ``price`` or ``mileage`` are continuous; the paper's queries
(``Price = 20000``) implicitly treat them as coarse buckets.  A
:class:`Discretizer` maps numeric columns to interval labels so the mining
stack sees categorical data, and exposes the inverse mapping so evidence
values can be bucketed consistently at prediction time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import MiningError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.values import NULL, is_null

__all__ = ["Discretizer", "equal_width_edges", "quantile_edges"]


def equal_width_edges(values: Sequence[float], bins: int) -> list[float]:
    """Interior edges of *bins* equal-width intervals over *values*."""
    if bins < 2:
        raise MiningError("discretization needs at least 2 bins")
    if not len(values):
        raise MiningError("cannot derive bin edges from an empty column")
    low, high = float(np.min(values)), float(np.max(values))
    if low == high:
        return []
    return [float(edge) for edge in np.linspace(low, high, bins + 1)[1:-1]]


def quantile_edges(values: Sequence[float], bins: int) -> list[float]:
    """Interior edges at the empirical quantiles of *values* (deduplicated)."""
    if bins < 2:
        raise MiningError("discretization needs at least 2 bins")
    if not len(values):
        raise MiningError("cannot derive bin edges from an empty column")
    quantiles = np.quantile(
        np.asarray(values, dtype=float),
        [i / bins for i in range(1, bins)],
        method="lower",
    )
    edges: list[float] = []
    for edge in quantiles:
        value = float(edge)
        if not edges or value > edges[-1]:
            edges.append(value)
    return edges


def _encoded_numeric_column(sample: Relation, name: str) -> "Any | None":
    """Non-NULL values of column *name* as a float64 array, if cheaply possible.

    Only uses a columnar image the relation has *already* materialized
    (never builds one just for fitting), and only when every dictionary
    entry converts to float64 exactly — those two conditions make the
    gathered array element-for-element identical to the per-row Python
    extraction, so bin edges cannot depend on which path ran.
    """
    store = getattr(sample, "_columnar", None)
    if store is None:
        return None
    column = store.column(name)
    numeric, exact = column.dictionary_numeric()
    if not bool(exact.all()):
        return None
    return numeric[column.codes[column.codes >= 0]]


@dataclass(frozen=True)
class _ColumnBins:
    edges: tuple[float, ...]
    low: float
    high: float

    def label(self, value: float) -> int:
        """Bin index of *value* (0-based, rightmost bin catches overflow)."""
        return bisect.bisect_right(self.edges, value)

    def center(self, index: int) -> float:
        """Midpoint of bin *index*, used as the bin's representative value."""
        bounds = (self.low, *self.edges, self.high)
        index = max(0, min(index, len(bounds) - 2))
        return (bounds[index] + bounds[index + 1]) / 2.0


class Discretizer:
    """Bucket numeric attributes of a relation into interval labels.

    The discretizer is *fit* on one relation (the sample) and can then be
    applied to other relations and to scalar evidence values, guaranteeing
    the same bucketing everywhere — which is what keeps classifier evidence
    consistent between mining and query time.

    Parameters
    ----------
    sample:
        Relation whose numeric columns define the bin edges.
    bins:
        Number of buckets per numeric attribute.
    strategy:
        ``"width"`` (equal-width) or ``"quantile"``.
    attributes:
        Restrict to these numeric attributes (default: all numeric ones).
    """

    def __init__(
        self,
        sample: Relation,
        bins: int = 10,
        strategy: str = "width",
        attributes: Sequence[str] | None = None,
    ):
        if strategy not in ("width", "quantile"):
            raise MiningError(f"unknown discretization strategy {strategy!r}")
        edge_fn = equal_width_edges if strategy == "width" else quantile_edges
        if attributes is None:
            attributes = [
                attr.name
                for attr in sample.schema
                if attr.type is AttributeType.NUMERIC
            ]
        self._bins: dict[str, _ColumnBins] = {}
        for name in attributes:
            if not sample.schema.is_numeric(name):
                raise MiningError(f"attribute {name!r} is not numeric")
            values: Any = _encoded_numeric_column(sample, name)
            if values is None:
                values = [v for v in sample.column(name) if not is_null(v)]
            if not len(values):
                continue  # an all-NULL column carries no binning information
            if isinstance(values, np.ndarray):
                low, high = float(values.min()), float(values.max())
            else:
                low, high = float(min(values)), float(max(values))
            self._bins[name] = _ColumnBins(tuple(edge_fn(values, bins)), low, high)

    @classmethod
    def from_bins(
        cls, bins: "dict[str, tuple[tuple[float, ...], float, float]]"
    ) -> "Discretizer":
        """Rebuild a discretizer from stored ``(edges, low, high)`` per attribute.

        Used by knowledge-base persistence so reloaded classifiers bucket
        evidence exactly as the original mining run did.
        """
        instance = cls.__new__(cls)
        instance._bins = {
            name: _ColumnBins(tuple(edges), float(low), float(high))
            for name, (edges, low, high) in bins.items()
        }
        return instance

    def to_bins(self) -> "dict[str, tuple[tuple[float, ...], float, float]]":
        """The inverse of :meth:`from_bins`."""
        return {
            name: (column.edges, column.low, column.high)
            for name, column in self._bins.items()
        }

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._bins)

    def covers(self, attribute: str) -> bool:
        return attribute in self._bins

    def bucket(self, attribute: str, value: Any) -> Any:
        """The bucket label of a scalar *value* (NULL passes through).

        Already-bucketed labels (and any other strings) pass through
        unchanged, making the mapping idempotent — callers may mix raw and
        mining-space values in evidence.
        """
        if is_null(value):
            return NULL
        column = self._bins.get(attribute)
        if column is None or isinstance(value, str):
            return value
        return f"bin{column.label(value)}"

    def bin_bounds(self, attribute: str, label: Any) -> tuple[float, float]:
        """The numeric interval a bucket label covers.

        The outermost bins extend to ±∞ so values beyond the fitted sample's
        range still fall into a bin; this is what rewritten range queries
        bind.
        """
        column = self._bins.get(attribute)
        if column is None:
            raise MiningError(f"attribute {attribute!r} is not discretized")
        if not isinstance(label, str) or not label.startswith("bin"):
            raise MiningError(f"{label!r} is not a bucket label")
        index = int(label[3:])
        bounds = (float("-inf"), *column.edges, float("inf"))
        index = max(0, min(index, len(bounds) - 2))
        return bounds[index], bounds[index + 1]

    def transform(
        self, relation: Relation, exclude: "set[str] | frozenset[str]" = frozenset()
    ) -> Relation:
        """A relation with every covered numeric column bucketed.

        Bucketed attributes become categorical in the result schema.
        Attributes in *exclude* keep their raw values — classifier training
        uses this to bucket only the *feature* columns while the class
        column stays raw, so posteriors range over actual domain values.
        """
        schema = relation.schema
        new_schema = Schema(
            Attribute(attr.name, AttributeType.CATEGORICAL)
            if attr.name in self._bins and attr.name not in exclude
            else attr
            for attr in schema
        )
        covered = [
            (schema.index_of(name), self._bins[name])
            for name in self._bins
            if name in schema and name not in exclude
        ]
        rows = []
        for row in relation:
            values = list(row)
            for index, column in covered:
                value = values[index]
                # Inlined `bucket` with the column pre-resolved: NULLs and
                # already-bucketed labels pass through, numbers get binned.
                if not (is_null(value) or isinstance(value, str)):
                    values[index] = f"bin{column.label(value)}"
            rows.append(tuple(values))
        # Rows come out of an existing relation, so they are already coerced.
        return Relation.from_coerced(new_schema, rows)

    def transform_evidence(self, evidence: dict[str, Any]) -> dict[str, Any]:
        """Bucket the numeric entries of an evidence mapping."""
        return {name: self.bucket(name, value) for name, value in evidence.items()}

    def representative(self, attribute: str, label: Any) -> Any:
        """A representative raw value for a bucket label (the bin midpoint).

        Non-bucket labels (including values of uncovered attributes) pass
        through unchanged, so callers can apply this uniformly to predicted
        completions.
        """
        column = self._bins.get(attribute)
        if column is None or not isinstance(label, str) or not label.startswith("bin"):
            return label
        try:
            index = int(label[3:])
        except ValueError:
            return label
        return column.center(index)
