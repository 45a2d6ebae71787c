"""Certain/possible answer evaluation and aggregates (Definition 2 semantics)."""

import pytest

from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Equals,
    SelectionQuery,
    certain_answers,
    certain_or_possible,
    evaluate_aggregate,
    possible_answers,
)
from repro.relational import NULL, AttributeType, Relation, Schema


@pytest.fixture()
def cars() -> Relation:
    schema = Schema.of("make", "model", ("price", AttributeType.NUMERIC), "body")
    return Relation(
        schema,
        [
            ("Honda", "Accord", 18000, "Sedan"),   # certain for body=Sedan
            ("Honda", "Civic", 15000, NULL),       # possible for body queries
            ("BMW", "Z4", 40000, "Convt"),
            ("BMW", NULL, 35000, NULL),            # two nulls
            ("Audi", "A4", NULL, "Sedan"),
        ],
    )


class TestCertainAnswers:
    def test_equality(self, cars):
        result = certain_answers(SelectionQuery.equals("body", "Sedan"), cars)
        assert len(result) == 2

    def test_null_is_never_certain(self, cars):
        result = certain_answers(SelectionQuery.equals("model", "Civic"), cars)
        assert all(row[1] == "Civic" for row in result)

    def test_incomplete_tuple_can_be_certain_on_other_attributes(self, cars):
        # Audi A4 has NULL price but is a certain answer for body=Sedan.
        result = certain_answers(SelectionQuery.equals("body", "Sedan"), cars)
        assert ("Audi", "A4", NULL, "Sedan") in result.rows


class TestPossibleAnswers:
    def test_single_null_on_constrained_attribute(self, cars):
        result = possible_answers(SelectionQuery.equals("body", "Convt"), cars)
        assert len(result) == 2  # Civic and the BMW with two nulls

    def test_max_nulls_filters_multi_null_rows(self, cars):
        query = SelectionQuery.conjunction(
            [Equals("model", "Z4"), Equals("body", "Convt")]
        )
        loose = possible_answers(query, cars, max_nulls=None)
        strict = possible_answers(query, cars, max_nulls=1)
        assert len(loose) == 1  # the double-null BMW
        assert len(strict) == 0

    def test_certain_rows_are_not_possible(self, cars):
        query = SelectionQuery.equals("body", "Sedan")
        possible = possible_answers(query, cars)
        certain = certain_answers(query, cars)
        assert not set(possible.rows) & set(certain.rows)

    def test_mismatch_on_present_value_disqualifies(self, cars):
        query = SelectionQuery.conjunction(
            [Equals("make", "Porsche"), Equals("body", "Convt")]
        )
        assert len(possible_answers(query, cars)) == 0

    def test_certain_or_possible_is_the_union(self, cars):
        query = SelectionQuery.equals("body", "Sedan")
        union = certain_or_possible(query, cars)
        parts = set(certain_answers(query, cars).rows) | set(
            possible_answers(query, cars, max_nulls=None).rows
        )
        assert set(union.rows) == parts


class TestAggregates:
    def test_count_star_counts_certain_answers(self, cars):
        query = AggregateQuery(
            SelectionQuery.equals("make", "Honda"), AggregateFunction.COUNT
        )
        assert evaluate_aggregate(query, cars) == 2.0

    def test_sum_skips_nulls(self, cars):
        query = AggregateQuery(
            SelectionQuery.equals("body", "Sedan"), AggregateFunction.SUM, "price"
        )
        assert evaluate_aggregate(query, cars) == 18000.0  # Audi's NULL price skipped

    def test_avg_of_empty_result_is_none(self, cars):
        query = AggregateQuery(
            SelectionQuery.equals("make", "Fiat"), AggregateFunction.AVG, "price"
        )
        assert evaluate_aggregate(query, cars) is None

