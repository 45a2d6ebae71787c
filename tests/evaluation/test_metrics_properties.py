"""Property-based invariants of the IR metrics."""

from hypothesis import given, strategies as st

from repro.evaluation import (
    accumulated_precision,
    accuracy_cdf,
    aggregate_accuracy,
    average_precision,
    precision_at_recall,
    precision_recall_curve,
    tuples_required_for_recall,
)

_FLAGS = st.lists(st.booleans(), max_size=40)


@given(_FLAGS, st.integers(0, 50))
def test_curve_values_are_fractions(flags, relevant):
    for point in precision_recall_curve(flags, relevant):
        assert 0.0 <= point.precision <= 1.0
        assert 0.0 <= point.recall <= 1.0


@given(_FLAGS, st.integers(1, 50))
def test_recall_is_non_decreasing(flags, relevant):
    recalls = [p.recall for p in precision_recall_curve(flags, relevant)]
    assert recalls == sorted(recalls)


@given(_FLAGS)
def test_accumulated_precision_matches_curve(flags):
    curve = precision_recall_curve(flags, max(sum(flags), 1))
    accumulated = accumulated_precision(flags)
    assert [p.precision for p in curve] == accumulated


@given(_FLAGS, st.integers(1, 50))
def test_average_precision_bounded(flags, relevant):
    assert 0.0 <= average_precision(flags, relevant) <= 1.0


@given(st.integers(0, 40), st.integers(1, 50))
def test_all_relevant_run_has_ap_of_recall_share(length, relevant):
    """An all-relevant run's AP is retrieved/relevant, capped at 1."""
    all_hits = [True] * length
    assert average_precision(all_hits, relevant) == min(length / relevant, 1.0)


@given(_FLAGS, st.integers(1, 20))
def test_tuples_required_is_monotone_in_recall_level(flags, relevant):
    levels = [0.1, 0.3, 0.5, 0.8, 1.0]
    ranks = tuples_required_for_recall(flags, relevant, levels)
    reached = [rank for rank in ranks if rank is not None]
    assert reached == sorted(reached)
    # Once a level is unreached, all higher levels are too.
    seen_none = False
    for rank in ranks:
        if rank is None:
            seen_none = True
        else:
            assert not seen_none


@given(_FLAGS, st.integers(1, 20))
def test_interpolated_precision_is_non_increasing_in_recall(flags, relevant):
    points = precision_recall_curve(flags, relevant)
    levels = [0.1, 0.3, 0.5, 0.8]
    values = precision_at_recall(points, levels)
    assert values == sorted(values, reverse=True)


@given(st.lists(st.floats(0.0, 1.0), max_size=30))
def test_accuracy_cdf_is_non_increasing_in_threshold(accuracies):
    thresholds = [0.5, 0.7, 0.9, 0.99]
    fractions = accuracy_cdf(accuracies, thresholds)
    assert fractions == sorted(fractions, reverse=True)
    assert all(0.0 <= fraction <= 1.0 for fraction in fractions)


@given(st.floats(-1000, 1000), st.floats(-1000, 1000))
def test_aggregate_accuracy_bounded(truth, measured):
    assert 0.0 <= aggregate_accuracy(truth, measured) <= 1.0


@given(st.floats(-1000, 1000))
def test_exact_measurement_is_perfect(value):
    assert aggregate_accuracy(value, value) == 1.0
