"""The QPIAD mediator end-to-end on selection queries."""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.errors import QpiadError
from repro.query import SelectionQuery
from repro.relational import is_null


@pytest.fixture(scope="module")
def result(cars_env):
    mediator = QpiadMediator(
        cars_env.web_source(), cars_env.knowledge, QpiadConfig(alpha=0.0, k=10)
    )
    return mediator.query(SelectionQuery.equals("body_style", "Convt"))


class TestConfig:
    def test_invalid_alpha_rejected(self):
        with pytest.raises(QpiadError):
            QpiadConfig(alpha=-0.1)

    def test_invalid_k_rejected(self):
        with pytest.raises(QpiadError):
            QpiadConfig(k=-1)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(QpiadError):
            QpiadConfig(min_confidence=1.5)


class TestCertainAnswers:
    def test_base_set_certainly_matches(self, result, cars_env):
        schema = cars_env.test.schema
        index = schema.index_of("body_style")
        assert all(row[index] == "Convt" for row in result.certain)

    def test_base_set_equals_direct_execution(self, result, cars_env):
        direct = cars_env.web_source().execute(
            SelectionQuery.equals("body_style", "Convt")
        )
        assert set(result.certain.rows) == set(direct.rows)


class TestRankedPossibleAnswers:
    def test_every_ranked_answer_has_null_target(self, result, cars_env):
        index = cars_env.test.schema.index_of("body_style")
        assert result.ranked, "expected some possible answers"
        assert all(is_null(answer.row[index]) for answer in result.ranked)

    def test_confidences_are_non_increasing(self, result):
        confidences = [answer.confidence for answer in result.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_no_duplicate_rows(self, result):
        rows = [answer.row for answer in result.ranked]
        assert len(rows) == len(set(rows))

    def test_ranked_answers_do_not_repeat_certain_answers(self, result):
        certain = set(result.certain.rows)
        assert all(answer.row not in certain for answer in result.ranked)

    def test_answers_carry_explanations(self, result):
        for answer in result.ranked:
            text = answer.explain()
            assert "body_style" in text
            assert f"{answer.confidence:.3f}" in text

    def test_high_confidence_answers_mostly_relevant(self, result, cars_env):
        strong = [a for a in result.ranked if a.confidence >= 0.8]
        if len(strong) >= 4:
            relevant = sum(
                cars_env.oracle.is_relevant(a.row, result.query) for a in strong
            )
            assert relevant / len(strong) >= 0.6


class TestResourceLimits:
    def test_k_limits_rewritten_queries(self, cars_env):
        mediator = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=3)
        )
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert result.stats.rewritten_issued <= 3
        assert result.stats.queries_issued <= 4  # base query + 3 rewritten

    def test_min_confidence_filters_answers(self, cars_env):
        mediator = QpiadMediator(
            cars_env.web_source(),
            cars_env.knowledge,
            QpiadConfig(k=10, min_confidence=0.8),
        )
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert all(answer.confidence >= 0.8 for answer in result.ranked)

    def test_stats_are_recorded(self, result):
        assert result.stats.rewritten_generated >= result.stats.rewritten_issued
        assert result.stats.queries_issued == 1 + result.stats.rewritten_issued
        assert result.stats.tuples_retrieved >= len(result.certain)


class TestUnrewritableQueries:
    def test_attribute_without_afd_returns_certain_only(self, cars_env):
        from repro.mining import KnowledgeBase, MiningConfig, TaneConfig

        empty_kb = KnowledgeBase(
            cars_env.train,
            database_size=len(cars_env.test),
            config=MiningConfig(
                tane=TaneConfig(min_confidence=0.999999, min_support=10**9)
            ),
        )
        mediator = QpiadMediator(cars_env.web_source(), empty_kb)
        result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
        assert result.ranked == [] and result.stats.queries_issued == 1

