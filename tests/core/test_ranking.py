"""F-measure scoring and top-K ordering of rewritten queries."""

import pytest

from repro.core.rewriting import RewrittenQuery
from repro.planner import Ranker, f_measure
from repro.errors import QpiadError
from repro.mining import Afd
from repro.query import SelectionQuery


def _rq(model: str, precision: float, selectivity: float) -> RewrittenQuery:
    return RewrittenQuery(
        query=SelectionQuery.equals("model", model),
        target_attribute="body_style",
        evidence={"model": model},
        estimated_precision=precision,
        estimated_selectivity=selectivity,
        afd=Afd(("model",), "body_style", 0.9),
    )


class TestFMeasure:
    def test_alpha_zero_is_precision(self):
        assert f_measure(0.7, 0.01, alpha=0.0) == 0.7

    def test_alpha_one_is_harmonic_mean(self):
        assert f_measure(0.5, 0.5, alpha=1.0) == pytest.approx(0.5)
        assert f_measure(1.0, 0.0, alpha=1.0) == 0.0

    def test_larger_alpha_weights_recall(self):
        high_p = (0.9, 0.1)
        high_r = (0.3, 0.9)
        # At alpha=0 precision wins; at large alpha recall dominates.
        assert f_measure(*high_p, alpha=0.0) > f_measure(*high_r, alpha=0.0)
        assert f_measure(*high_p, alpha=8.0) < f_measure(*high_r, alpha=8.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(QpiadError):
            f_measure(0.5, 0.5, alpha=-1)

    def test_bounds(self):
        for p in (0.0, 0.3, 1.0):
            for r in (0.0, 0.3, 1.0):
                for alpha in (0.0, 0.5, 1.0, 2.0):
                    assert 0.0 <= f_measure(p, r, alpha) <= 1.0


class TestScoring:
    def test_recall_normalizes_throughput(self):
        queries = [_rq("A", 0.9, 10), _rq("B", 0.5, 100)]
        scored = Ranker(alpha=1.0).score(queries)
        total = 0.9 * 10 + 0.5 * 100
        assert scored[0].estimated_recall == pytest.approx(0.9 * 10 / total)
        assert scored[1].estimated_recall == pytest.approx(0.5 * 100 / total)
        assert sum(q.estimated_recall for q in scored) == pytest.approx(1.0)

    def test_zero_throughput_everywhere(self):
        queries = [_rq("A", 0.0, 0), _rq("B", 0.0, 0)]
        scored = Ranker(alpha=1.0).score(queries)
        assert all(q.estimated_recall == 0.0 for q in scored)
        assert all(q.f_measure == 0.0 for q in scored)


class TestOrdering:
    def test_alpha_zero_orders_by_precision(self):
        queries = [_rq("A", 0.5, 1000), _rq("B", 0.9, 1)]
        ordered = Ranker(alpha=0.0, k=None).order(queries)
        assert ordered[0].evidence["model"] == "B"

    def test_high_alpha_prefers_throughput(self):
        queries = [_rq("A", 0.5, 1000), _rq("B", 0.9, 1)]
        top = Ranker(alpha=5.0, k=1).order(queries)
        assert top[0].evidence["model"] == "A"

    def test_top_k_truncates(self):
        queries = [_rq(str(i), 0.1 * i, 10) for i in range(1, 8)]
        assert len(Ranker(alpha=0.0, k=3).order(queries)) == 3

    def test_selected_queries_are_issued_in_precision_order(self):
        queries = [_rq(str(i), p, s) for i, (p, s) in enumerate(
            [(0.2, 500), (0.9, 5), (0.6, 50), (0.4, 100)]
        )]
        ordered = Ranker(alpha=1.0, k=3).order(queries)
        precisions = [q.estimated_precision for q in ordered]
        assert precisions == sorted(precisions, reverse=True)

    def test_k_zero_selects_nothing(self):
        assert Ranker(alpha=0.0, k=0).order([_rq("A", 0.5, 5)]) == []

    def test_negative_k_rejected(self):
        with pytest.raises(QpiadError):
            Ranker(alpha=0.0, k=-1).order([])

    def test_deterministic_tie_breaking(self):
        queries = [_rq("B", 0.5, 10), _rq("A", 0.5, 10)]
        first = Ranker(alpha=0.0, k=None).order(queries)
        second = Ranker(alpha=0.0, k=None).order(list(reversed(queries)))
        assert [q.query for q in first] == [q.query for q in second]
