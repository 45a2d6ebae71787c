"""Equivalence-class partitions for dependency discovery.

TANE-style AFD mining works on *partitions*: the rows of a relation grouped
by their values on an attribute set ``X``.  The ``g3`` error of ``X ⇝ A``
(Kivinen & Mannila) and the key error of ``X`` are both simple functions of
these partitions.

NULL handling: a row with NULL on any attribute of ``X`` carries no evidence
about the dependency, so it is excluded from the partition; error measures
are normalized by the number of rows actually partitioned.  This matters in
QPIAD because the mined sample itself is incomplete.

Partitions are built from dictionary codes
(:meth:`~repro.relational.relation.Relation.columnar`): grouping codes with
sort-based numpy primitives yields exactly the classes dict-grouping of the
decoded values would, because codes are assigned with the same ``dict``
equality.  A partition is kept as a pair of flat arrays (row order + class
sizes) and converted to tuples only if somebody asks for
:attr:`Partition.classes`.  Every error measure below is an
order-insensitive sum, so class *order* is immaterial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.relational.relation import Relation

__all__ = [
    "Partition",
    "partition_by",
    "partition_from_codes",
    "g3_error",
    "g3_stats",
    "key_error",
]


class Partition:
    """Grouping of row indices by equal values over an attribute set.

    Attributes
    ----------
    order:
        The concatenated members of every class, ascending within a class.
    sizes:
        The class lengths, in the same class order as *order*.
    classes:
        Tuple of equivalence classes; each class is a tuple of row indices
        (ascending).  Classes cover exactly the rows that are non-NULL on
        every grouping attribute.
    covered:
        Total number of rows partitioned (sum of class sizes).
    """

    __slots__ = ("_classes", "order", "sizes")

    def __init__(self, order: "NDArray[np.int64]", sizes: "NDArray[np.int64]"):
        self._classes: "tuple[tuple[int, ...], ...] | None" = None
        self.order = order
        self.sizes = sizes

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            if self.sizes.shape[0] == 0:
                self._classes = ()  # np.split would yield one empty class
            else:
                splits = np.cumsum(self.sizes[:-1])
                self._classes = tuple(
                    tuple(part.tolist()) for part in np.split(self.order, splits)
                )
        return self._classes

    @property
    def covered(self) -> int:
        return int(self.order.shape[0])

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def refine(self, codes: "NDArray[np.int64]") -> "Partition":
        """Refine this partition by an extra attribute's dictionary codes.

        ``codes[i]`` is row ``i``'s code on the extra attribute (``-1`` =
        NULL); rows whose code is NULL drop out.  Equivalent to the TANE
        partition product ``Π_X · Π_{A}`` restricted to non-NULL rows,
        computed by re-sorting on ``group_id * width + code``.
        """
        order, sizes = self.order, self.sizes
        if order.shape[0] == 0:
            return self
        group_ids = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        labels = codes[order]
        valid = labels >= 0
        order_v = order[valid]
        if order_v.shape[0] == 0:
            return Partition(order_v, np.zeros(0, dtype=np.int64))
        group_v = group_ids[valid]
        labels_v = labels[valid]
        width = int(labels_v.max()) + 1
        combined = group_v * width + labels_v
        sorter = np.argsort(combined, kind="stable")
        sorted_keys = combined[sorter]
        boundary = np.empty(sorted_keys.shape[0], dtype=np.bool_)
        boundary[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        new_sizes = np.diff(np.append(starts, sorted_keys.shape[0]))
        return Partition(order_v[sorter], new_sizes)


def partition_by(relation: Relation, attributes: Sequence[str]) -> Partition:
    """Partition *relation*'s row indices by their values on *attributes*."""
    store = relation.columnar()
    return partition_from_codes([store.column(name).codes for name in attributes])


def partition_from_codes(columns: "Sequence[NDArray[np.int64]]") -> Partition:
    """Partition row indices by one or more dictionary-code columns.

    Grouping dictionary codes with a stable sort yields exactly the classes
    dict-grouping of the decoded values would, because codes were assigned
    with the same ``dict`` equality.  Single-column classes come out in
    first-seen value order
    (codes are minted in first-seen order); refinements do not preserve that
    order, which no consumer depends on.
    """
    if not columns:
        raise ValueError("partition_from_codes requires at least one column")
    codes = columns[0]
    valid = np.flatnonzero(codes >= 0)
    if valid.shape[0] == 0:
        partition = Partition(valid, np.zeros(0, dtype=np.int64))
    else:
        labels = codes[valid]
        sorter = np.argsort(labels, kind="stable")
        sorted_labels = labels[sorter]
        boundary = np.empty(sorted_labels.shape[0], dtype=np.bool_)
        boundary[0] = True
        np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, sorted_labels.shape[0]))
        partition = Partition(valid[sorter], sizes)
    for column in columns[1:]:
        partition = partition.refine(column)
    return partition


def g3_stats(
    x_partition: Partition, dependent_codes: "NDArray[np.int64]"
) -> "tuple[int, int]":
    """The integer pair ``(covered, kept)`` underlying the ``g3`` error.

    ``covered`` is the number of rows measured (non-NULL on ``X`` and on
    ``A``); ``kept`` is the number of rows retained when each X-class keeps
    only its majority A-value.  They are counted over ``(class, code)``
    pairs with ``np.unique`` and a per-class ``np.maximum.reduceat``.
    """
    order, sizes = x_partition.order, x_partition.sizes
    if order.shape[0] == 0:
        return 0, 0
    group_ids = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    labels = dependent_codes[order]
    valid = labels >= 0
    labels_v = labels[valid]
    covered = int(labels_v.shape[0])
    if covered == 0:
        return 0, 0
    group_v = group_ids[valid]
    width = int(labels_v.max()) + 1
    combined = group_v * width + labels_v
    pairs, counts = np.unique(combined, return_counts=True)
    pair_groups = pairs // width
    boundary = np.empty(pair_groups.shape[0], dtype=np.bool_)
    boundary[0] = True
    np.not_equal(pair_groups[1:], pair_groups[:-1], out=boundary[1:])
    kept = int(np.maximum.reduceat(counts, np.flatnonzero(boundary)).sum())
    return covered, kept


def g3_error(x_partition: Partition, dependent_codes: "NDArray[np.int64]") -> float:
    """The ``g3`` error of ``X ⇝ A`` given ``Π_X`` and A's dictionary codes.

    ``g3`` is the minimum fraction of rows that must be removed for the
    dependency to hold exactly: within each X-class, keep the rows of the
    majority A-value and remove the rest.  Rows NULL on A (code ``-1``) are
    excluded from both numerator and denominator.  Returns 0.0 when no row
    is covered (vacuously exact).
    """
    covered, kept = g3_stats(x_partition, dependent_codes)
    if covered == 0:
        return 0.0
    return (covered - kept) / covered


def key_error(x_partition: Partition) -> float:
    """The ``g3`` error of ``X`` as a key: fraction of rows to remove so all
    X-values are unique (one row kept per class)."""
    if x_partition.covered == 0:
        return 0.0
    return (x_partition.covered - len(x_partition)) / x_partition.covered
