"""NULL-aware evaluation of queries against relations.

The executor is what an autonomous database "does internally"; the mediator
never calls it directly on source data — it goes through
:class:`repro.sources.AutonomousSource`, which enforces the web-form
capability restrictions and delegates here.

Three evaluation modes mirror the paper's answer taxonomy (Definition 2):

* :func:`certain_answers` — rows that certainly satisfy the query,
* :func:`possible_answers` — rows NULL-blocked on constrained attributes
  (satisfying every conjunct on a present value),
* :func:`certain_or_possible` — their union, as retrieved by the
  ``AllReturned`` baseline when NULL binding is allowed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.query.query import AggregateFunction, AggregateQuery, SelectionQuery
from repro.relational.columnar import ColumnStore
from repro.relational.relation import Relation
from repro.relational.values import is_null

__all__ = [
    "certain_answers",
    "possible_answers",
    "certain_or_possible",
    "certain_count",
    "evaluate_aggregate",
]


def certain_answers(query: SelectionQuery, relation: Relation) -> Relation:
    """Rows of *relation* that certainly satisfy *query* (SQL semantics).

    The predicate is evaluated as a boolean mask over the relation's column
    store and the matching rows are gathered in row order.
    """
    mask = query.predicate.mask(relation.columnar())
    return relation.select_indices(np.flatnonzero(mask).tolist())


def possible_answers(
    query: SelectionQuery, relation: Relation, max_nulls: int | None = None
) -> Relation:
    """Rows that are possible-but-not-certain answers to *query*.

    A row qualifies when every conjunct either matches or is blocked by a
    NULL on one of its constrained attributes, and at least one conjunct is
    NULL-blocked.  With *max_nulls* set, rows with more NULLs over the
    constrained attributes are excluded (the paper ranks only rows with at
    most one such NULL).
    """
    store = relation.columnar()
    null_counts = _null_counts(store, query.constrained_attributes)
    mask = query.predicate.possible_mask(store) & (null_counts > 0)
    if max_nulls is not None:
        mask &= null_counts <= max_nulls
    return relation.select_indices(np.flatnonzero(mask).tolist())


def certain_or_possible(query: SelectionQuery, relation: Relation) -> Relation:
    """Union of certain and possible answers, preserving row order."""
    possible = query.predicate.possible_mask(relation.columnar())
    return relation.select_indices(np.flatnonzero(possible).tolist())


def certain_count(query: SelectionQuery, relation: Relation) -> int:
    """``len(certain_answers(query, relation))`` without materializing rows.

    A mask sum.  ``SelectivityEstimator.sample_selectivity`` counts one
    query this way; scoring rewritten queries does not call it, because
    ``repro.mining.selectivity.SampleMasks`` masks the sample once per
    distinct predicate of a whole batch instead.
    """
    return int(query.predicate.mask(relation.columnar()).sum())


def _null_counts(store: ColumnStore, attributes: Sequence[str]) -> "np.ndarray":
    """Per-row count of NULLs over *attributes* (int64)."""
    counts = np.zeros(len(store), dtype=np.int64)
    for name in attributes:
        counts += store.column(name).null_mask
    return counts


def evaluate_aggregate(query: AggregateQuery, relation: Relation) -> float | None:
    """Evaluate an aggregate over the certain answers of its selection.

    NULLs in the aggregated attribute are skipped (SQL semantics); for
    ``COUNT(*)`` every certain answer counts.
    """
    answers = certain_answers(query.selection, relation)
    if query.function is AggregateFunction.COUNT and query.attribute == "*":
        return float(len(answers))
    values = [value for value in answers.column(query.attribute) if not is_null(value)]
    return query.function.compute(values)

