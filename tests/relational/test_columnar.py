"""The ColumnStore encoding."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import Relation, Schema
from repro.relational.columnar import ColumnStore, float64_exact
from repro.relational.values import NULL


def _cars() -> Relation:
    return Relation(
        Schema.of("make", "price"),
        [
            ("Honda", 9000),
            ("BMW", None),
            ("Honda", 12000),
            (None, 9000),
            ("Audi", 15000),
        ],
    )


class TestEncoding:
    def test_codes_are_first_seen_order_with_minus_one_null(self):
        store = _cars().columnar()
        make = store.column("make")
        assert make.codes is not None
        assert make.codes.tolist() == [0, 1, 0, -1, 2]
        assert list(make.values) == ["Honda", "BMW", "Audi"]
        assert make.codes.dtype == np.int64

    def test_null_mask_marks_exactly_the_nulls(self):
        store = _cars().columnar()
        assert store.column("make").null_mask.tolist() == [
            False,
            False,
            False,
            True,
            False,
        ]
        assert store.column("price").null_mask.tolist() == [
            False,
            True,
            False,
            False,
            False,
        ]

    def test_python_equality_collapses_codes(self):
        # 1, 1.0 and True are == in Python; the encoder must agree with
        # dict-based grouping (distinct_values, value_counts).
        relation = Relation(Schema.of("x"), [(1,), (1.0,), (True,), (2,)])
        column = relation.columnar().column("x")
        assert column.codes.tolist() == [0, 0, 0, 1]

    def test_unhashable_cell_raises_schema_error(self):
        relation = Relation(Schema.of("ok", "x"), [(1, (2,)), (2, None), (3, [3])])
        with pytest.raises(SchemaError, match="'x'.*unhashable list"):
            relation.columnar()
        with pytest.raises(SchemaError, match="'x'"):
            ColumnStore.from_relation(relation)

    def test_code_of_known_unknown_and_unhashable_probe(self):
        column = _cars().columnar().column("make")
        assert column.code_of("Honda") == 0
        assert column.code_of("Toyota") is None
        # Unhashable probes raise; callers evaluate per dictionary entry.
        with pytest.raises(TypeError):
            column.code_of([1])

    def test_from_rows_matches_from_relation(self):
        relation = _cars()
        direct = ColumnStore.from_rows(relation.schema, relation.rows)
        via = ColumnStore.from_relation(relation)
        for name in relation.schema.names:
            assert direct.column(name).codes.tolist() == via.column(
                name
            ).codes.tolist()

    def test_empty_relation_encodes(self):
        store = Relation(Schema.of("x")).columnar()
        assert len(store) == 0
        assert store.column("x").codes.tolist() == []


class TestMemoization:
    def test_columnar_is_memoized_per_relation(self):
        relation = _cars()
        assert relation.columnar() is relation.columnar()

    def test_derived_relations_do_not_share_the_store(self):
        relation = _cars()
        store = relation.columnar()
        taken = relation.take(2)
        assert taken.columnar() is not store
        assert len(taken.columnar()) == 2


class TestNumericProjection:
    def test_dictionary_numeric_marks_exact_entries(self):
        relation = Relation(Schema.of("x"), [(1,), (2.5,), ("word",), (None,)])
        column = relation.columnar().column("x")
        values, exact = column.dictionary_numeric()
        assert exact.tolist() == [True, True, False]
        assert values[0] == 1.0 and values[1] == 2.5

    def test_float64_exact_boundaries(self):
        assert float64_exact(2**53)
        assert not float64_exact(2**53 + 1)
        assert float64_exact(-(2**53))
        assert float64_exact(0.1)  # any float is its own float64 image
        assert float64_exact(float("nan"))
        assert not float64_exact("word")
        assert not float64_exact(NULL)

    def test_gather_bool_maps_codes_and_clears_nulls(self):
        column = _cars().columnar().column("make")
        per_value = np.array([True, False, True])  # Honda, BMW, Audi
        assert column.gather_bool(per_value).tolist() == [
            True,
            False,
            True,
            False,  # NULL row never matches
            True,
        ]
