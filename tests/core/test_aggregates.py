"""Aggregate processing with missing-value prediction (Section 4.4)."""

import pytest

from repro.core import AggregateProcessor
from repro.query import AggregateFunction, AggregateQuery, SelectionQuery


@pytest.fixture(scope="module")
def processor(cars_env):
    return AggregateProcessor(cars_env.web_source(), cars_env.knowledge)


def _true_value(cars_env, aggregate):
    """Ground truth computed over the complete counterparts of test rows."""
    from repro.query.executor import evaluate_aggregate
    from repro.relational import Relation

    complete_rows = [
        cars_env.oracle.ground_truth_row(row) for row in cars_env.test.rows
    ]
    complete = Relation(cars_env.dataset.complete.schema, complete_rows)
    return evaluate_aggregate(aggregate, complete)


class TestCountStar:
    def test_prediction_moves_count_towards_truth(self, cars_env, processor):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"), AggregateFunction.COUNT
        )
        result = processor.query(aggregate)
        truth = _true_value(cars_env, aggregate)
        assert result.certain_value <= result.predicted_value
        assert abs(result.predicted_value - truth) <= abs(result.certain_value - truth)

    def test_certain_count_matches_base_set(self, cars_env, processor):
        aggregate = AggregateQuery(
            SelectionQuery.equals("make", "Honda"), AggregateFunction.COUNT
        )
        result = processor.query(aggregate)
        direct = cars_env.web_source().execute(aggregate.selection)
        assert result.certain_value == float(len(direct))


class TestSum:
    def test_sum_includes_predicted_tuples(self, cars_env, processor):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"),
            AggregateFunction.SUM,
            "price",
        )
        result = processor.query(aggregate)
        truth = _true_value(cars_env, aggregate)
        assert result.predicted_value >= result.certain_value
        assert abs(result.predicted_value - truth) <= abs(result.certain_value - truth)

    def test_null_aggregated_attribute_is_predicted(self, cars_env):
        # Certain answers with NULL price contribute via prediction.
        processor = AggregateProcessor(cars_env.web_source(), cars_env.knowledge)
        aggregate = AggregateQuery(
            SelectionQuery.equals("make", "Porsche"),
            AggregateFunction.SUM,
            "price",
        )
        result = processor.query(aggregate)
        assert result.predicted_value is not None
        assert result.predicted_value >= (result.certain_value or 0.0)


class TestInclusionRule:
    def test_only_argmax_matching_queries_included(self, cars_env):
        processor = AggregateProcessor(cars_env.web_source(), cars_env.knowledge)
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"), AggregateFunction.COUNT
        )
        result = processor.query(aggregate)
        assert result.included_queries <= result.considered_queries

    def test_detail_counters(self, cars_env, processor):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Sedan"), AggregateFunction.COUNT
        )
        result = processor.query(aggregate)
        assert result.certain_count > 0
        assert result.possible_count >= 0


class TestInclusionRules:
    def test_unknown_rule_rejected(self, cars_env):
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="inclusion rule"):
            AggregateProcessor(
                cars_env.web_source(), cars_env.knowledge, inclusion_rule="majority"
            )

    def test_fractional_rule_counts_fractions(self, cars_env):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"), AggregateFunction.COUNT
        )
        argmax = AggregateProcessor(
            cars_env.web_source(), cars_env.knowledge, inclusion_rule="argmax"
        ).query(aggregate)
        fractional = AggregateProcessor(
            cars_env.web_source(), cars_env.knowledge, inclusion_rule="fractional"
        ).query(aggregate)
        # Fractional folds in *every* query scaled by precision, so its
        # count need not be an integer and both exceed the certain count.
        assert fractional.predicted_value >= fractional.certain_value
        assert argmax.predicted_value >= argmax.certain_value
        assert fractional.included_queries >= argmax.included_queries

    def test_both_rules_improve_on_certain_only(self, cars_env):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Sedan"), AggregateFunction.COUNT
        )
        truth = len(
            [
                row
                for row in cars_env.test.rows
                if cars_env.oracle.ground_truth_row(row)[5] == "Sedan"
            ]
        )
        for rule in ("argmax", "fractional"):
            outcome = AggregateProcessor(
                cars_env.web_source(), cars_env.knowledge, inclusion_rule=rule
            ).query(aggregate)
            assert abs(outcome.predicted_value - truth) <= abs(
                outcome.certain_value - truth
            )


class TestAvgMinMax:
    @pytest.mark.parametrize(
        "function", [AggregateFunction.AVG, AggregateFunction.MIN, AggregateFunction.MAX]
    )
    def test_other_functions_compute(self, processor, function):
        aggregate = AggregateQuery(
            SelectionQuery.equals("make", "BMW"), AggregateFunction(function), "price"
        )
        result = processor.query(aggregate)
        assert result.certain_value is not None
        assert result.predicted_value is not None

    def test_empty_selection_yields_none(self, processor):
        aggregate = AggregateQuery(
            SelectionQuery.equals("make", "Lada"), AggregateFunction.AVG, "price"
        )
        result = processor.query(aggregate)
        assert result.certain_value is None
