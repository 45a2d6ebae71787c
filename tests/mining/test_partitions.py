"""Partitions and g3 error measures."""

import pytest

from repro.mining import g3_error, key_error, partition_by
from repro.relational import NULL, Relation, Schema


def _codes(relation: Relation, name: str):
    """The dictionary codes of *name* (``-1`` = NULL) the kernels group by."""
    return relation.columnar().column(name).codes


@pytest.fixture()
def relation() -> Relation:
    schema = Schema.of("model", "make", "body")
    return Relation(
        schema,
        [
            ("Accord", "Honda", "Sedan"),
            ("Accord", "Honda", "Coupe"),
            ("Accord", "Honda", "Sedan"),
            ("Z4", "BMW", "Convt"),
            ("Z4", NULL, "Convt"),
            (NULL, "Honda", "Sedan"),
        ],
    )


class TestPartitionBy:
    def test_groups_by_value(self, relation):
        partition = partition_by(relation, ["model"])
        assert len(partition) == 2  # Accord, Z4
        assert partition.covered == 5  # the NULL-model row drops out

    def test_multi_attribute_partition(self, relation):
        partition = partition_by(relation, ["model", "make"])
        # (Accord,Honda) x3 and (Z4,BMW) x1 -- rows NULL on either attr drop.
        assert len(partition) == 2
        assert partition.covered == 4

    def test_refine_equals_direct_partition(self, relation):
        base = partition_by(relation, ["model"])
        refined = base.refine(_codes(relation, "make"))
        direct = partition_by(relation, ["model", "make"])
        as_sets = lambda p: sorted(sorted(c) for c in p.classes)
        assert as_sets(refined) == as_sets(direct)


class TestG3Error:
    def test_exact_dependency_has_zero_error(self, relation):
        partition = partition_by(relation, ["model"])
        assert g3_error(partition, _codes(relation, "make")) == 0.0

    def test_approximate_dependency_error(self, relation):
        partition = partition_by(relation, ["model"])
        # model=Accord: bodies Sedan,Coupe,Sedan -> remove 1 of 3.
        # model=Z4: Convt,Convt -> remove 0. Error = 1/5.
        assert g3_error(partition, _codes(relation, "body")) == pytest.approx(1 / 5)

    def test_null_dependents_excluded(self):
        schema = Schema.of("x", "y")
        relation = Relation(schema, [("a", 1), ("a", NULL), ("a", NULL)])
        partition = partition_by(relation, ["x"])
        assert g3_error(partition, _codes(relation, "y")) == 0.0

    def test_empty_coverage_is_vacuously_exact(self):
        schema = Schema.of("x", "y")
        relation = Relation(schema, [(NULL, 1)])
        partition = partition_by(relation, ["x"])
        assert g3_error(partition, _codes(relation, "y")) == 0.0


class TestKeyError:
    def test_unique_column_is_a_key(self):
        relation = Relation(Schema.of("id"), [(1,), (2,), (3,)])
        assert key_error(partition_by(relation, ["id"])) == 0.0

    def test_duplicated_values_increase_error(self, relation):
        partition = partition_by(relation, ["model"])
        # 5 covered rows in 2 classes -> remove 3 to make it a key.
        assert key_error(partition) == pytest.approx(3 / 5)

    def test_empty_partition(self):
        relation = Relation(Schema.of("x"), [(NULL,)])
        assert key_error(partition_by(relation, ["x"])) == 0.0
