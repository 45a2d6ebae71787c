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

from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.relational.relation import Relation

__all__ = [
    "Partition",
    "partition_by",
    "partition_from_codes",
    "class_counts",
    "code_histogram",
    "code_histogram_items",
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

    def covered_with(self, labels: "NDArray[np.int64]") -> int:
        """Covered rows that are also non-NULL under a code column."""
        order = self.order
        return int((labels[order] >= 0).sum())

    def extend(
        self, columns: "Sequence[NDArray[np.int64]]", start: int
    ) -> "Partition":
        """Fold rows ``start..`` of *columns* into this partition.

        *columns* are full-length dictionary-code arrays over a grown
        relation whose first ``start`` rows are exactly the rows this
        partition was built over.  Dictionary codes are minted first-seen,
        so growing a relation never re-codes its existing prefix; batch
        rows are partitioned with the same argsort kernels and merged into
        the existing classes by their representative code key.  The result
        has the same classes as ``partition_from_codes(columns)`` over the
        full relation (class order may differ, which no error measure
        depends on; members within a class stay ascending).
        """
        order, sizes = self.order, self.sizes
        batch = partition_from_codes([column[start:] for column in columns])
        b_order, b_sizes = batch.order, batch.sizes
        if b_order.shape[0] == 0:
            return Partition(order, sizes)
        k_old = int(sizes.shape[0])
        old_starts = np.cumsum(sizes) - sizes
        b_starts = np.cumsum(b_sizes) - b_sizes
        key_of: dict[tuple[int, ...], int] = {}
        if k_old:
            reps = order[old_starts]
            stacked = np.stack([column[reps] for column in columns], axis=1)
            for position, key in enumerate(stacked.tolist()):
                key_of[tuple(key)] = position
        b_reps = b_order[b_starts] + start
        b_stacked = np.stack([column[b_reps] for column in columns], axis=1)
        added = np.zeros(k_old, dtype=np.int64)
        dest = np.empty(b_sizes.shape[0], dtype=np.int64)
        fresh = k_old
        # Per-class (not per-row) matching of batch classes to old classes.
        for j, key in enumerate(b_stacked.tolist()):
            position = key_of.get(tuple(key))
            if position is None:
                dest[j] = fresh
                fresh += 1
            else:
                dest[j] = position
                added[position] += b_sizes[j]
        merged_sizes = np.empty(fresh, dtype=np.int64)
        merged_sizes[:k_old] = sizes + added
        is_new = dest >= k_old
        merged_sizes[dest[is_new]] = b_sizes[is_new]
        merged_starts = np.cumsum(merged_sizes) - merged_sizes
        merged_order = np.empty(order.shape[0] + b_order.shape[0], dtype=np.int64)
        if order.shape[0]:
            offsets = np.arange(order.shape[0], dtype=np.int64) - np.repeat(
                old_starts, sizes
            )
            merged_order[np.repeat(merged_starts[:k_old], sizes) + offsets] = order
        base = merged_starts[dest]
        base[~is_new] += sizes[dest[~is_new]]
        b_offsets = np.arange(b_order.shape[0], dtype=np.int64) - np.repeat(
            b_starts, b_sizes
        )
        merged_order[np.repeat(base, b_sizes) + b_offsets] = b_order + start
        return Partition(merged_order, merged_sizes)


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
    only its majority A-value.  Both are exact integers, so they can be
    maintained incrementally and re-divided later without drift.  They are
    counted over ``(class, code)`` pairs with ``np.unique`` and a per-class
    ``np.maximum.reduceat``.
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


def class_counts(
    partition: Partition, columns: "Sequence[NDArray[np.int64]]"
) -> "dict[tuple[int, ...], int]":
    """Map each class's representative code key to its class size.

    *columns* must be the code arrays *partition* was built over (row
    indices in the partition index into them).  Because all rows of a class
    share the same codes, reading the codes at one representative row per
    class recovers the full value-combination histogram — the sufficient
    statistic incremental mining folds batches into.
    """
    order, sizes = partition.order, partition.sizes
    if sizes.shape[0] == 0:
        return {}
    starts = np.cumsum(sizes) - sizes
    reps = order[starts]
    stacked = np.stack([column[reps] for column in columns], axis=1)
    return {
        tuple(key): int(size)
        for key, size in zip(stacked.tolist(), sizes.tolist())
    }


def code_histogram(
    columns: "Sequence[NDArray[np.int64]]",
) -> "dict[tuple[int, ...], int]":
    """The value-combination histogram of one or more code columns.

    Equivalent to ``class_counts(partition_from_codes(columns), columns)``
    — rows NULL (``-1``) on any column drop out, and each surviving code
    combination maps to its row count — but computed with a single
    mixed-radix ``np.unique`` instead of building partition classes.  This
    is the kernel incremental mining folds batches with, where only the
    histogram (never the row classes) is needed.  Falls back to the
    partition route if the radix product would overflow int64.
    """
    return dict(code_histogram_items(columns))


def code_histogram_items(
    columns: "Sequence[NDArray[np.int64]]",
) -> "Iterable[tuple[tuple[int, ...], int]]":
    """:func:`code_histogram` as an iterable of ``(combo, count)`` pairs.

    Saves materializing an intermediate dict when the consumer folds the
    pairs straight into its own accumulator (the incremental mining state).
    """
    if not columns:
        raise ValueError("code_histogram requires at least one column")
    valid = columns[0] >= 0
    for column in columns[1:]:
        valid = valid & (column >= 0)
    rows = np.flatnonzero(valid)
    if rows.shape[0] == 0:
        return ()
    combined = columns[0][rows]
    for column in columns[1:]:
        codes = column[rows]
        width = int(codes.max()) + 1
        if int(combined.max()) > (2**62) // max(width, 1):
            return class_counts(partition_from_codes(columns), columns).items()
        combined = combined * width + codes
    _, first, counts = np.unique(combined, return_index=True, return_counts=True)
    reps = rows[first]
    stacked = np.stack([column[reps] for column in columns], axis=1)
    return zip(map(tuple, stacked.tolist()), map(int, counts.tolist()))


def key_error(x_partition: Partition) -> float:
    """The ``g3`` error of ``X`` as a key: fraction of rows to remove so all
    X-values are unique (one row kept per class)."""
    if x_partition.covered == 0:
        return 0.0
    return (x_partition.covered - len(x_partition)) / x_partition.covered
