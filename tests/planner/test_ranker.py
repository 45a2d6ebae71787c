"""The Ranker value object: one ranking policy for every pipeline.

``tests/core/test_ranking.py`` covers F-measure scoring and top-K
ordering; these tests pin the :class:`~repro.planner.Ranker` validation
and — most importantly — the canonical ``select_top`` tie-break the join
processor now shares.  The regression being pinned: the join processor once broke
F-measure ties on bare precision (and its repr of the whole pair object),
diverging from the selection pipeline's ``(-F, -throughput, key)`` rule.
"""

import pytest

from repro.core.rewriting import RewrittenQuery
from repro.errors import QpiadError
from repro.mining import Afd
from repro.planner import Ranker
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


class TestValidation:
    def test_negative_alpha_rejected(self):
        with pytest.raises(QpiadError):
            Ranker(alpha=-0.5)

    def test_negative_k_rejected(self):
        with pytest.raises(QpiadError):
            Ranker(k=-1)


class TestFacade:
    def test_f_measure_delegates_alpha(self):
        assert Ranker(alpha=0.0).f_measure(0.7, 0.9) == 0.7
        assert Ranker(alpha=1.0).f_measure(0.5, 0.5) == pytest.approx(0.5)


class TestSelectTop:
    """The canonical joint-scoring selection (join-pair tie-break pin)."""

    def _select(self, items, k=None):
        return Ranker(alpha=0.5, k=k).select_top(
            items,
            f=lambda item: item["f"],
            throughput=lambda item: item["throughput"],
            key=lambda item: item["key"],
        )

    def test_orders_by_f_descending(self):
        items = [
            {"f": 0.2, "throughput": 1.0, "key": "a"},
            {"f": 0.9, "throughput": 1.0, "key": "b"},
            {"f": 0.5, "throughput": 1.0, "key": "c"},
        ]
        assert [item["key"] for item in self._select(items)] == ["b", "c", "a"]

    def test_f_ties_break_on_throughput_not_precision(self):
        # The historical joins bug: two pairs with equal F but different
        # expected throughput were ordered by pair *precision*.  The shared
        # policy prefers the higher-throughput item.
        low_precision_high_throughput = {
            "f": 0.6, "throughput": 50.0, "precision": 0.5, "key": "b",
        }
        high_precision_low_throughput = {
            "f": 0.6, "throughput": 5.0, "precision": 0.9, "key": "a",
        }
        selected = self._select(
            [high_precision_low_throughput, low_precision_high_throughput]
        )
        assert [item["key"] for item in selected] == ["b", "a"]

    def test_full_ties_break_on_canonical_key(self):
        items = [
            {"f": 0.6, "throughput": 5.0, "key": "z"},
            {"f": 0.6, "throughput": 5.0, "key": "a"},
        ]
        assert [item["key"] for item in self._select(items)] == ["a", "z"]

    def test_k_budget_is_applied_after_ordering(self):
        items = [
            {"f": f, "throughput": 1.0, "key": str(index)}
            for index, f in enumerate((0.1, 0.9, 0.5, 0.7))
        ]
        selected = self._select(items, k=2)
        assert [item["f"] for item in selected] == [0.9, 0.7]

    def test_k_none_keeps_everything(self):
        items = [
            {"f": float(index), "throughput": 0.0, "key": str(index)}
            for index in range(5)
        ]
        assert len(self._select(items)) == 5
