"""Property-based invariants of the mining stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mining import NaiveBayesClassifier, g3_error, key_error, partition_by
from repro.mining.partitions import Partition
from repro.relational import NULL, Relation, Schema

SCHEMA = Schema.of("x", "y")

_VALUES = st.one_of(st.just(NULL), st.integers(0, 4))
_ROWS = st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=50)


def _codes(relation: Relation, name: str):
    """The dictionary codes of *name* (``-1`` = NULL) the kernels group by."""
    return relation.columnar().column(name).codes


@given(_ROWS)
def test_g3_error_is_a_fraction(rows):
    relation = Relation(SCHEMA, rows)
    partition = partition_by(relation, ["x"])
    error = g3_error(partition, _codes(relation, "y"))
    assert 0.0 <= error <= 1.0


@given(_ROWS)
def test_key_error_is_a_fraction(rows):
    relation = Relation(SCHEMA, rows)
    assert 0.0 <= key_error(partition_by(relation, ["x"])) <= 1.0


@given(_ROWS)
def test_partition_classes_are_disjoint_and_cover_non_null_rows(rows):
    relation = Relation(SCHEMA, rows)
    partition = partition_by(relation, ["x"])
    flat = [index for cls in partition.classes for index in cls]
    assert len(flat) == len(set(flat))
    expected = {i for i, row in enumerate(relation.rows) if row[0] is not NULL}
    assert set(flat) == expected


@given(_ROWS)
def test_refinement_never_decreases_class_count(rows):
    relation = Relation(SCHEMA, rows)
    base = partition_by(relation, ["x"])
    refined = base.refine(_codes(relation, "y"))
    assert len(refined) >= len(base) - sum(
        1 for cls in base.classes if all(relation.rows[i][1] is NULL for i in cls)
    )
    assert refined.covered <= base.covered


@given(_ROWS)
def test_adding_attributes_never_increases_g3_error(rows):
    """Monotonicity: a larger determining set can only tighten g3."""
    schema = Schema.of("x", "z", "y")
    widened = Relation(schema, [(a, (a, b), b) for a, b in rows])
    small = partition_by(widened, ["x"])
    large = partition_by(widened, ["x", "z"])
    labels = _codes(widened, "y")
    # Compare only when coverage matches (NULL z-values can shrink coverage).
    if small.covered == large.covered:
        assert g3_error(large, labels) <= g3_error(small, labels) + 1e-12


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["A", "B", "C"])),
        min_size=2,
        max_size=60,
    ),
    st.floats(0.0, 10.0),
)
def test_nbc_posterior_is_a_distribution(rows, m):
    relation = Relation(SCHEMA, rows)
    try:
        nbc = NaiveBayesClassifier(relation, "y", ["x"], m=m)
    except Exception:
        pytest.skip("degenerate training data")
    for evidence in ({}, {"x": 0}, {"x": 99}):
        posterior = nbc.distribution(evidence)
        assert abs(sum(posterior.values()) - 1.0) < 1e-9
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in posterior.values())


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["A", "B"])),
        min_size=4,
        max_size=60,
    )
)
def test_nbc_prediction_is_among_training_classes(rows):
    relation = Relation(SCHEMA, rows)
    nbc = NaiveBayesClassifier(relation, "y", ["x"])
    value, probability = nbc.predict({"x": rows[0][0]})
    assert value in {"A", "B"}
    assert 0.0 < probability <= 1.0


def test_partition_of_empty_class_list():
    empty = np.zeros(0, dtype=np.int64)
    partition = Partition(empty, empty)
    assert len(partition) == 0 and partition.covered == 0
    assert key_error(partition) == 0.0
