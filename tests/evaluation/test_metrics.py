"""IR metrics used by the Section 6 experiments."""

import pytest

from repro.errors import QpiadError
from repro.evaluation import (
    accumulated_precision,
    accuracy_cdf,
    aggregate_accuracy,
    average_accumulated_precision,
    average_precision,
    precision_at_recall,
    precision_recall_curve,
    tuples_required_for_recall,
)

FLAGS = [True, True, False, True, False]


class TestPrecisionRecallCurve:
    def test_pointwise_values(self):
        points = precision_recall_curve(FLAGS, total_relevant=4)
        assert points[0].precision == 1.0 and points[0].recall == 0.25
        assert points[2].precision == pytest.approx(2 / 3)
        assert points[-1].recall == 0.75

    def test_zero_relevant_keeps_recall_zero(self):
        points = precision_recall_curve([False, True], total_relevant=0)
        assert all(point.recall == 0.0 for point in points)

    def test_negative_relevant_rejected(self):
        with pytest.raises(QpiadError):
            precision_recall_curve(FLAGS, total_relevant=-1)

    def test_empty_run(self):
        assert precision_recall_curve([], 5) == []


class TestAccumulatedPrecision:
    def test_matches_running_ratio(self):
        assert accumulated_precision(FLAGS) == [1.0, 1.0, 2 / 3, 0.75, 0.6]

    def test_average_pads_with_final_value(self):
        averaged = average_accumulated_precision([[True], [True, False]])
        # Position 0: (1.0 + 1.0)/2 ; position 1: (1.0 padded + 0.5)/2
        assert averaged == [1.0, 0.75]

    def test_average_skips_empty_runs(self):
        assert average_accumulated_precision([[], [True]]) == [1.0]

    def test_average_of_nothing(self):
        assert average_accumulated_precision([[], []]) == []

    def test_explicit_length_extends(self):
        averaged = average_accumulated_precision([[True, True]], length=4)
        assert len(averaged) == 4 and averaged[-1] == 1.0


class TestPrecisionAtRecall:
    def test_interpolates_with_max_beyond(self):
        points = precision_recall_curve(FLAGS, total_relevant=3)
        values = precision_at_recall(points, [0.3, 0.6, 1.0])
        assert values[0] == 1.0
        assert values[1] == 1.0  # rank 2 reaches recall 2/3 at precision 1.0
        assert values[2] == pytest.approx(0.75)

    def test_unreachable_levels_are_zero(self):
        points = precision_recall_curve([True], total_relevant=10)
        assert precision_at_recall(points, [0.5]) == [0.0]


class TestTuplesRequired:
    def test_ranks_where_recall_is_reached(self):
        required = tuples_required_for_recall(FLAGS, 3, [0.3, 0.6, 0.99])
        assert required == [1, 2, 4]

    def test_unreached_levels_are_none(self):
        assert tuples_required_for_recall([False], 2, [0.5]) == [None]


class TestAggregateAccuracy:
    def test_exact_match_is_one(self):
        assert aggregate_accuracy(100.0, 100.0) == 1.0

    def test_relative_error(self):
        assert aggregate_accuracy(100.0, 90.0) == pytest.approx(0.9)
        assert aggregate_accuracy(100.0, 110.0) == pytest.approx(0.9)

    def test_clamped_at_zero(self):
        assert aggregate_accuracy(10.0, 1000.0) == 0.0

    def test_degenerate_cases(self):
        assert aggregate_accuracy(None, None) == 1.0
        assert aggregate_accuracy(None, 5.0) == 0.0
        assert aggregate_accuracy(5.0, None) == 0.0
        assert aggregate_accuracy(0.0, 0.0) == 1.0
        assert aggregate_accuracy(0.0, 1.0) == 0.0


class TestAccuracyCdf:
    def test_fraction_at_each_threshold(self):
        fractions = accuracy_cdf([1.0, 0.95, 0.8], [0.9, 0.99, 1.0])
        assert fractions == [pytest.approx(2 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3)]

    def test_empty_inputs(self):
        assert accuracy_cdf([], [0.9]) == [0.0]


class TestAveragePrecision:
    def test_perfect_run(self):
        assert average_precision([True, True], 2) == 1.0

    def test_interleaved_run(self):
        assert average_precision([True, False, True], 2) == pytest.approx(
            (1.0 + 2 / 3) / 2
        )

    def test_zero_relevant(self):
        assert average_precision([True], 0) == 0.0
