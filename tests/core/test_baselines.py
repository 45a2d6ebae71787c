"""AllReturned and AllRanked baselines."""

import pytest

from repro.core import all_ranked, all_returned
from repro.errors import NullBindingError
from repro.query import Equals, SelectionQuery
from repro.relational import is_null


@pytest.fixture(scope="module")
def query():
    return SelectionQuery.equals("body_style", "Convt")


class TestAllReturned:
    def test_rejected_by_web_sources(self, cars_env, query):
        with pytest.raises(NullBindingError):
            all_returned(cars_env.web_source(), query)

    def test_returns_every_null_bearing_tuple(self, cars_env, query):
        result = all_returned(cars_env.permissive_source(), query)
        index = cars_env.test.schema.index_of("body_style")
        expected = sum(1 for row in cars_env.test if is_null(row[index]))
        assert len(result.ranked) == expected

    def test_answers_carry_no_confidence(self, cars_env, query):
        result = all_returned(cars_env.permissive_source(), query)
        assert all(answer.confidence == 0.0 for answer in result.ranked)

    def test_recall_is_total_but_precision_poor(self, cars_env, query):
        result = all_returned(cars_env.permissive_source(), query)
        flags = cars_env.oracle.relevance_flags(
            [a.row for a in result.ranked], query
        )
        relevant = cars_env.total_relevant(query)
        assert sum(flags) == relevant  # everything is eventually found
        assert sum(flags) < len(flags)  # ...among many irrelevant tuples


class TestAllRanked:
    def test_same_tuples_as_all_returned_but_ordered(self, cars_env, query):
        knowledge = cars_env.knowledge
        returned = all_returned(cars_env.permissive_source(), query)
        ranked = all_ranked(cars_env.permissive_source(), query, knowledge)
        assert {a.row for a in returned.ranked} == {a.row for a in ranked.ranked}
        confidences = [a.confidence for a in ranked.ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_ranking_beats_database_order(self, cars_env, query):
        from repro.evaluation import average_precision

        knowledge = cars_env.knowledge
        returned = all_returned(cars_env.permissive_source(), query)
        ranked = all_ranked(cars_env.permissive_source(), query, knowledge)
        total = cars_env.total_relevant(query)
        ap_returned = average_precision(
            cars_env.oracle.relevance_flags([a.row for a in returned.ranked], query),
            total,
        )
        ap_ranked = average_precision(
            cars_env.oracle.relevance_flags([a.row for a in ranked.ranked], query),
            total,
        )
        assert ap_ranked > ap_returned

    def test_transfers_entire_null_population(self, cars_env, query):
        # The efficiency argument of Fig. 8: AllRanked must always ship all
        # NULL-bearing tuples regardless of how few are wanted.
        result = all_ranked(cars_env.permissive_source(), query, cars_env.knowledge)
        index = cars_env.test.schema.index_of("body_style")
        expected = sum(1 for row in cars_env.test if is_null(row[index]))
        assert len(result.ranked) == expected


class TestAllRankedSeveralNulls:
    def test_rows_with_several_nulls_score_their_joint_probability(
        self, cars_env, cars_two_nulls
    ):
        """A row missing both constrained values is scored by the product
        of both posteriors, not by its first missing value alone."""
        source, two_nulls = cars_two_nulls
        knowledge = cars_env.knowledge
        query = SelectionQuery.conjunction(
            [Equals("make", "BMW"), Equals("body_style", "Convt")]
        )
        result = all_ranked(source, query, knowledge, max_nulls=None)
        names = source.schema.names
        confidence = {answer.row: answer.confidence for answer in result.ranked}
        for row in two_nulls:
            evidence = {name: value for name, value in zip(names, row) if not is_null(value)}
            [make] = knowledge.value_distributions("make", [evidence])
            [body_style] = knowledge.value_distributions("body_style", [evidence])
            expected = 1.0 * make.get("BMW", 0.0) * body_style.get("Convt", 0.0)
            assert confidence[row].hex() == expected.hex()
        ranked = [answer.row for answer in result.ranked if answer.row in two_nulls]
        model = source.schema.index_of("model")
        # The Z4 is the one BMW convertible; the 530i is a BMW sedan.
        assert [row[model] for row in ranked[:2]] == ["Z4", "530i"]
