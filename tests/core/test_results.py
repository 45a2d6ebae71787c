"""QueryResult / RankedAnswer containers."""

import pytest

from repro.core import QueryResult, RankedAnswer, RetrievalStats
from repro.mining import Afd
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema


@pytest.fixture()
def result() -> QueryResult:
    query = SelectionQuery.equals("body", "Convt")
    certain = Relation(Schema.of("model", "body"), [("Z4", "Convt")])
    afd = Afd(("model",), "body", 0.9)
    ranked = [
        RankedAnswer(("Boxster", NULL), 0.9, query, "body", afd),
        RankedAnswer(("A4", NULL), 0.4, query, "body", None),
    ]
    return QueryResult(
        query=query,
        certain=certain,
        ranked=ranked,
        unranked=[(NULL, NULL)],
        stats=RetrievalStats(queries_issued=3),
    )


class TestQueryResult:
    def test_top(self, result):
        assert [a.confidence for a in result.top(1)] == [0.9]

    def test_iteration_yields_ranked(self, result):
        assert [a.confidence for a in result] == [0.9, 0.4]

    def test_repr_summarizes_counts(self, result):
        text = repr(result)
        assert "1 certain" in text and "2 ranked" in text and "1 unranked" in text


class TestExplanations:
    def test_afd_backed_explanation(self, result):
        text = result.ranked[0].explain()
        assert "model" in text and "0.900" in text

    def test_fallback_explanation(self, result):
        text = result.ranked[1].explain()
        assert "no AFD" in text
