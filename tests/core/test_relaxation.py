"""AFD-guided query relaxation."""

import pytest

from repro.core.relaxation import QueryRelaxer
from repro.errors import QpiadError, QueryError
from repro.planner import attribute_influence
from repro.query import Equals, SelectionQuery


@pytest.fixture(scope="module")
def relaxer(cars_env):
    return QueryRelaxer(cars_env.web_source(), cars_env.knowledge)


@pytest.fixture(scope="module")
def overconstrained():
    # A sub-$8000 Porsche does not exist in the catalog: zero certain answers.
    from repro.query import Between

    return SelectionQuery.conjunction(
        [Equals("make", "Porsche"), Between("price", 6000, 8000), Equals("certified", "Yes")]
    )


class TestInfluence:
    def test_determining_attributes_score_higher(self, cars_env):
        # model determines make/body_style/price; certified determines nothing.
        afds = cars_env.knowledge.afds
        assert attribute_influence(afds, "model") > attribute_influence(
            afds, "certified"
        )

    def test_influence_is_non_negative(self, cars_env):
        for name in cars_env.test.schema.names:
            assert attribute_influence(cars_env.knowledge.afds, name) >= 0.0


class TestPlan:
    def test_fewest_drops_first(self, relaxer, overconstrained):
        plan = relaxer.plan(overconstrained)
        drop_counts = [
            len(overconstrained.constrained_attributes) - len(q.constrained_attributes)
            for q in plan.queries
        ]
        assert drop_counts == sorted(drop_counts)

    def test_low_influence_attributes_dropped_first(self, relaxer, overconstrained):
        plan = relaxer.plan(overconstrained)
        first = plan.queries[0]
        # The least-influential conjunct is gone from the first relaxation.
        least = min(plan.influence, key=plan.influence.get)
        assert least not in first.constrained_attributes

    def test_single_conjunct_query_rejected(self, relaxer):
        with pytest.raises(QueryError):
            relaxer.plan(SelectionQuery.equals("make", "Porsche"))

    def test_max_dropped_caps_the_plan(self, cars_env, overconstrained):
        capped = QueryRelaxer(cars_env.web_source(), cars_env.knowledge, max_dropped=1)
        plan = capped.plan(overconstrained)
        assert all(len(q.constrained_attributes) >= 2 for q in plan.queries)

    def test_negative_max_dropped_rejected(self, cars_env):
        """Regression: -1 used to be accepted and silently planned nothing."""
        with pytest.raises(QpiadError, match="max_dropped"):
            QueryRelaxer(cars_env.web_source(), cars_env.knowledge, max_dropped=-1)

    def test_zero_max_dropped_means_exact_answers_only(self, cars_env, overconstrained):
        exact = QueryRelaxer(cars_env.web_source(), cars_env.knowledge, max_dropped=0)
        assert exact.plan(overconstrained).queries == ()


class TestRelaxedRetrieval:
    def test_returns_answers_for_an_empty_query(self, relaxer, overconstrained, cars_env):
        direct = cars_env.web_source().execute(overconstrained)
        assert len(direct) == 0  # precondition: truly over-constrained
        answers = relaxer.query(overconstrained, target_count=10)
        assert len(answers) >= 10

    def test_answers_sorted_by_similarity(self, relaxer, overconstrained):
        answers = relaxer.query(overconstrained, target_count=10)
        similarities = [answer.similarity for answer in answers]
        assert similarities == sorted(similarities, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in similarities)

    def test_exact_answers_rank_first_with_similarity_one(self, relaxer, cars_env):
        query = SelectionQuery.conjunction(
            [Equals("make", "Porsche"), Equals("body_style", "Convt")]
        )
        answers = relaxer.query(query, target_count=5)
        assert answers[0].similarity == 1.0
        assert answers[0].violated == ()

    def test_violations_recorded(self, relaxer, overconstrained):
        answers = relaxer.query(overconstrained, target_count=10)
        relaxed = [a for a in answers if a.similarity < 1.0]
        assert relaxed
        for answer in relaxed:
            assert answer.violated
            assert set(answer.violated) <= set(overconstrained.constrained_attributes)

    def test_invalid_target_count(self, relaxer, overconstrained):
        with pytest.raises(QpiadError):
            relaxer.query(overconstrained, target_count=0)

    def test_stops_early_once_target_met(self, cars_env):
        source = cars_env.web_source()
        relaxer = QueryRelaxer(source, cars_env.knowledge)
        query = SelectionQuery.conjunction(
            [Equals("make", "Honda"), Equals("body_style", "Sedan"), Equals("certified", "Yes")]
        )
        relaxer.query(query, target_count=5)
        # 1 exact + at most a couple of relaxations; never the full plan (6).
        assert source.statistics.queries_answered <= 3
