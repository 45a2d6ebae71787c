"""The TANE partition kernels against first-principles grouping references.

Partitions and ``g3`` are computed over dictionary codes; the references
below group and count the decoded values row by row.
"""

from collections import Counter

import numpy as np
import pytest

from repro.mining.partitions import (
    Partition,
    g3_error,
    key_error,
    partition_by,
    partition_from_codes,
)
from repro.relational import Relation, Schema
from repro.relational.values import NULL, is_null


def _reference_classes(relation, attributes):
    """Row indices grouped by non-NULL value tuple, in first-seen order."""
    positions = relation.schema.indices_of(attributes)
    groups: dict = {}
    for index, row in enumerate(relation):
        key = tuple(row[position] for position in positions)
        if not any(map(is_null, key)):
            groups.setdefault(key, []).append(index)
    return tuple(tuple(group) for group in groups.values())


def _reference_g3(relation, classes, dependent):
    """``g3`` from per-class ``Counter``s of the decoded dependent values."""
    labels = relation.column(dependent)
    counters = [Counter(labels[i] for i in cls if not is_null(labels[i])) for cls in classes]
    covered = sum(sum(c.values()) for c in counters)
    kept = sum(max(c.values()) for c in counters if c)
    return (covered - kept) / covered if covered else 0.0


def _relation() -> Relation:
    return Relation(
        Schema.of("make", "model", "body_style"),
        [
            ("Honda", "Accord", "Sedan"),
            ("Honda", "Civic", "Sedan"),
            ("BMW", "Z4", "Convt"),
            ("Honda", "Accord", NULL),
            (NULL, "Civic", "Sedan"),
            ("BMW", "Z4", "Convt"),
            ("Honda", "Accord", "Coupe"),
            ("Audi", NULL, "Sedan"),
        ],
    )


def _codes(relation: Relation, *names: str) -> list:
    store = relation.columnar()
    return [store.column(name).codes for name in names]


class TestPartitionFromCodes:
    @pytest.mark.parametrize(
        "attributes",
        [("make",), ("model",), ("make", "model"), ("make", "model", "body_style")],
    )
    def test_matches_row_partition_by(self, attributes):
        # Refined class *order* is unspecified (no consumer depends on it);
        # the class contents, count and coverage must agree exactly.
        relation = _relation()
        expected = _reference_classes(relation, attributes)
        for partition in (
            partition_from_codes(_codes(relation, *attributes)),
            partition_by(relation, attributes),
        ):
            assert set(partition.classes) == set(expected)
            assert len(partition) == len(expected)
            assert partition.covered == sum(map(len, expected))

    def test_single_column_classes_come_out_in_first_seen_order(self):
        relation = _relation()
        code_partition = partition_from_codes(_codes(relation, "make"))
        assert code_partition.classes == _reference_classes(relation, ("make",))

    def test_all_null_column_yields_empty_partition(self):
        relation = Relation(Schema.of("x"), [(NULL,), (NULL,)])
        assert partition_from_codes(_codes(relation, "x")).classes == ()
        assert partition_by(relation, ("x",)).classes == ()
        assert partition_by(relation, ("x",)).covered == 0

    def test_mixed_values_group_by_python_equality(self):
        # 1, 1.0 and True are one value; "1" and NaN objects are others.
        nan = float("nan")
        relation = Relation(
            Schema.of("x"), [(1,), ("1",), (1.0,), (True,), (nan,), (nan,), (-0.0,), (0,)]
        )
        partition = partition_by(relation, ("x",))
        assert set(partition.classes) == set(_reference_classes(relation, ("x",)))


class TestRefineParity:
    def test_refine_with_codes_matches_refine_with_values(self):
        relation = _relation()
        base = partition_by(relation, ("make",))
        codes = relation.columnar().column("model").codes
        expected = _reference_classes(relation, ("make", "model"))
        assert set(base.refine(codes).classes) == set(expected)

    def test_refine_drops_null_labelled_rows_on_both_paths(self):
        relation = _relation()
        base = partition_by(relation, ("model",))
        codes = relation.columnar().column("body_style").codes
        refined = base.refine(codes)
        expected = _reference_classes(relation, ("model", "body_style"))
        assert set(refined.classes) == set(expected)
        assert refined.covered == sum(map(len, expected))


class TestG3Parity:
    @pytest.mark.parametrize("determining", [("make",), ("make", "model")])
    @pytest.mark.parametrize("dependent", ["model", "body_style"])
    def test_g3_identical_for_values_and_codes(self, determining, dependent):
        relation = _relation()
        if dependent in determining:
            pytest.skip("dependent inside determining set")
        partition = partition_by(relation, determining)
        codes = relation.columnar().column(dependent).codes
        expected = _reference_g3(relation, partition.classes, dependent)
        assert g3_error(partition, codes) == expected

    def test_g3_is_exact_rational_arithmetic(self):
        # (covered - kept) / covered on ints: bit-identical, not merely close.
        relation = _relation()
        partition = partition_by(relation, ("make",))
        codes = relation.columnar().column("body_style").codes
        via_codes = g3_error(partition, codes)
        assert via_codes.hex() == _reference_g3(relation, partition.classes, "body_style").hex()
        assert isinstance(via_codes, float)

    def test_key_error_unchanged(self):
        relation = _relation()
        partition = partition_by(relation, ("make", "model"))
        assert 0.0 <= key_error(partition) <= 1.0


class TestPartitionObject:
    def test_array_constructor_roundtrip(self):
        partition = Partition(
            np.array([0, 2, 4, 1, 3], dtype=np.int64), np.array([3, 2], dtype=np.int64)
        )
        assert partition.classes == ((0, 2, 4), (1, 3))
        assert partition.covered == 5
        assert len(partition) == 2

    def test_refine_on_ndarray_splits_by_code(self):
        partition = partition_from_codes([np.zeros(4, dtype=np.int64)])
        codes = np.array([1, 0, 1, -1], dtype=np.int64)
        refined = partition.refine(codes)
        # NULL (-1) dropped; rows grouped by code (class order unspecified)
        assert set(refined.classes) == {(0, 2), (1,)}
        assert refined.covered == 3
