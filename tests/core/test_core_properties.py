"""Property-based invariants of rewriting and ranking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rewriting import RewrittenQuery
from repro.planner import Ranker, f_measure
from repro.mining import Afd
from repro.query import SelectionQuery


def _rq(tag: int, precision: float, selectivity: float) -> RewrittenQuery:
    return RewrittenQuery(
        query=SelectionQuery.equals("model", f"M{tag}"),
        target_attribute="body_style",
        evidence={"model": f"M{tag}"},
        estimated_precision=precision,
        estimated_selectivity=selectivity,
        afd=Afd(("model",), "body_style", 0.9),
    )


_BATCHES = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1000.0)),
    min_size=1,
    max_size=12,
)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 8.0))
def test_f_measure_bounded_by_max_component(precision, recall, alpha):
    value = f_measure(precision, recall, alpha)
    assert 0.0 <= value <= max(precision, recall) + 1e-9


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_f_measure_alpha_zero_is_precision(precision, recall):
    assert f_measure(precision, recall, 0.0) == precision


@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_f_measure_symmetric_at_alpha_one(precision, recall):
    assert f_measure(precision, recall, 1.0) == pytest.approx(
        f_measure(recall, precision, 1.0)
    )


@given(_BATCHES, st.floats(0.0, 4.0))
def test_recall_scores_form_a_distribution(batch, alpha):
    queries = [_rq(i, p, s) for i, (p, s) in enumerate(batch)]
    scored = Ranker(alpha).score(queries)
    total = sum(q.estimated_recall for q in scored)
    if any(q.expected_throughput > 0 for q in queries):
        assert total == pytest.approx(1.0)
    else:
        assert total == 0.0
    assert all(0.0 <= q.estimated_recall <= 1.0 for q in scored)


@given(_BATCHES, st.floats(0.0, 4.0), st.integers(0, 12))
def test_selection_size_and_precision_order(batch, alpha, k):
    queries = [_rq(i, p, s) for i, (p, s) in enumerate(batch)]
    ordered = Ranker(alpha, k).order(queries)
    assert len(ordered) == min(k, len(queries))
    precisions = [q.estimated_precision for q in ordered]
    assert precisions == sorted(precisions, reverse=True)


@given(_BATCHES, st.floats(0.0, 4.0))
def test_selected_set_maximizes_f_measure(batch, alpha):
    """The chosen top-K are exactly the K best F-measure scores."""
    queries = [_rq(i, p, s) for i, (p, s) in enumerate(batch)]
    k = max(1, len(queries) // 2)
    scored = Ranker(alpha).score(queries)
    chosen = Ranker(alpha, k).order(queries)
    chosen_f = sorted((q.f_measure for q in chosen), reverse=True)
    best_f = sorted((q.f_measure for q in scored), reverse=True)[:k]
    assert chosen_f == pytest.approx(best_f)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10))
def test_mediator_rank_monotone_in_k(k):
    """Growing K only appends answers; the prefix is stable."""
    from repro.core import QpiadConfig, QpiadMediator

    env = _cached_env()
    query = SelectionQuery.equals("body_style", "Convt")
    small = QpiadMediator(env.web_source(), env.knowledge, QpiadConfig(k=k)).query(query)
    large = QpiadMediator(env.web_source(), env.knowledge, QpiadConfig(k=k + 2)).query(
        query
    )
    small_rows = [a.row for a in small.ranked]
    large_rows = [a.row for a in large.ranked]
    assert large_rows[: len(small_rows)] == small_rows


_ENV = None


def _cached_env():
    global _ENV
    if _ENV is None:
        from repro.datasets import generate_cars
        from repro.evaluation import build_environment

        _ENV = build_environment(generate_cars(2000, seed=7), seed=42, name="prop")
    return _ENV
