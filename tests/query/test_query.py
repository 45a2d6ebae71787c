"""Query object construction and derivation."""

import pytest

from repro.errors import QueryError
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Between,
    Equals,
    JoinQuery,
    SelectionQuery,
)


class TestSelectionQuery:
    def test_equals_constructor(self):
        query = SelectionQuery.equals("make", "Honda")
        assert query.constrained_attributes == ("make",)
        assert query.equality_value("make") == "Honda"

    def test_conjunction_constructor(self):
        query = SelectionQuery.conjunction(
            [Equals("make", "Honda"), Between("price", 1, 2)]
        )
        assert query.constrained_attributes == ("make", "price")

    def test_equality_value_requires_equality(self):
        query = SelectionQuery(Between("price", 1, 2))
        with pytest.raises(QueryError):
            query.equality_value("price")

    def test_conjuncts_on(self):
        query = SelectionQuery.conjunction(
            [Equals("make", "Honda"), Between("price", 1, 2)]
        )
        assert query.conjuncts_on("price") == (Between("price", 1, 2),)

    def test_replacing_swaps_constraints(self):
        query = SelectionQuery.conjunction(
            [Equals("model", "Accord"), Between("price", 1, 2)]
        )
        rewritten = query.replacing("model", [Equals("make", "Honda")])
        assert "model" not in rewritten.constrained_attributes
        assert set(rewritten.constrained_attributes) == {"make", "price"}

    def test_replacing_with_nothing_requires_other_conjuncts(self):
        query = SelectionQuery.equals("make", "Honda")
        with pytest.raises(QueryError):
            query.replacing("make", [])

    def test_value_equality_ignores_conjunct_order(self):
        a = SelectionQuery.conjunction([Equals("x", 1), Equals("y", 2)])
        b = SelectionQuery.conjunction([Equals("y", 2), Equals("x", 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_relation_routing(self):
        query = SelectionQuery.equals("make", "Honda", relation="cars.com")
        assert query.relation == "cars.com"
        assert query != SelectionQuery.equals("make", "Honda")


class TestAggregateFunction:
    def test_count(self):
        assert AggregateFunction.COUNT.compute([1, 2, 3]) == 3.0

    def test_sum_avg_min_max(self):
        values = [1.0, 2.0, 3.0]
        assert AggregateFunction.SUM.compute(values) == 6.0
        assert AggregateFunction.AVG.compute(values) == 2.0
        assert AggregateFunction.MIN.compute(values) == 1.0
        assert AggregateFunction.MAX.compute(values) == 3.0

    def test_empty_inputs(self):
        assert AggregateFunction.COUNT.compute([]) == 0.0
        assert AggregateFunction.SUM.compute([]) is None


class TestAggregateQuery:
    def test_count_star_allowed(self):
        query = AggregateQuery(
            SelectionQuery.equals("make", "Honda"), AggregateFunction.COUNT
        )
        assert query.attribute == "*"

    def test_sum_star_rejected(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                SelectionQuery.equals("make", "Honda"), AggregateFunction.SUM
            )

    def test_value_semantics(self):
        a = AggregateQuery(
            SelectionQuery.equals("make", "Honda"), AggregateFunction.SUM, "price"
        )
        b = AggregateQuery(
            SelectionQuery.equals("make", "Honda"), AggregateFunction.SUM, "price"
        )
        assert a == b and hash(a) == hash(b)


class TestJoinQuery:
    def test_join_attribute_defaults_to_same_name(self):
        join = JoinQuery(
            SelectionQuery.equals("model", "F150"),
            SelectionQuery.equals("crash", "Yes"),
            "model",
        )
        assert join.right_join_attribute == "model"

    def test_distinct_join_attributes(self):
        join = JoinQuery(
            SelectionQuery.equals("model", "F150"),
            SelectionQuery.equals("crash", "Yes"),
            "model",
            "vehicle_model",
        )
        assert join.left_join_attribute == "model"
        assert join.right_join_attribute == "vehicle_model"
