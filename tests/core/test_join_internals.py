"""Unit tests of the join processor's scoring internals (Section 4.5)."""

import pytest

from repro.core.joins import JoinProcessor, _QueryPair, _Side, _empirical_distribution
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema


def _side(precision, selectivity, distribution, rewritten=True):
    return _Side(
        query=SelectionQuery.equals("x", "y"),
        is_rewritten=rewritten,
        precision=precision,
        selectivity=selectivity,
        join_distribution=distribution,
    )


class TestEmpiricalDistribution:
    def test_normalized_and_null_free(self):
        relation = Relation(
            Schema.of("model"),
            [("A",), ("A",), ("B",), (NULL,)],
        )
        distribution = _empirical_distribution(relation, "model")
        assert distribution == {"A": pytest.approx(2 / 3), "B": pytest.approx(1 / 3)}

    def test_empty_relation(self):
        relation = Relation(Schema.of("model"), [])
        assert _empirical_distribution(relation, "model") == {}


class TestSideScoring:
    def test_est_sel_per_value(self):
        side = _side(0.8, 100.0, {"A": 0.6, "B": 0.4})
        assert side.est_sel("A") == pytest.approx(0.8 * 100.0 * 0.6)
        assert side.est_sel("missing") == 0.0


class TestPairScoring:
    def test_pair_precision_multiplies(self):
        pair = _QueryPair(_side(0.8, 10, {"A": 1.0}), _side(0.5, 20, {"A": 1.0}))
        assert pair.precision == pytest.approx(0.4)

    def test_pair_selectivity_sums_over_common_values(self):
        left = _side(1.0, 10, {"A": 0.5, "B": 0.5})
        right = _side(1.0, 20, {"B": 0.25, "C": 0.75})
        pair = _QueryPair(left, right)
        expected = (10 * 0.5) * (20 * 0.25)  # only B is common
        assert pair.estimated_selectivity() == pytest.approx(expected)

    def test_disjoint_join_values_score_zero(self):
        """The paper's motivating case: two individually strong queries
        whose result sets share no join values make a worthless pair."""
        left = _side(0.99, 500, {"A": 1.0})
        right = _side(0.99, 500, {"B": 1.0})
        assert _QueryPair(left, right).estimated_selectivity() == 0.0


class TestJoinDistribution:
    def test_equality_on_join_attribute_is_point_mass(self, cars_env, complaints_env):
        from repro.core import JoinConfig
        from repro.core.rewriting import RewrittenQuery
        from repro.mining import Afd

        processor = JoinProcessor(
            cars_env.web_source(),
            complaints_env.web_source(),
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(),
        )
        rewritten = RewrittenQuery(
            query=SelectionQuery.equals("model", "Z4"),
            target_attribute="body_style",
            evidence={"model": "Z4"},
            estimated_precision=0.9,
            estimated_selectivity=5.0,
            afd=Afd(("model",), "body_style", 0.9),
        )
        [distribution] = processor._join_distributions(
            [rewritten], cars_env.knowledge, "model"
        )
        assert distribution == {"Z4": 1.0}

    def test_unbound_join_attribute_uses_the_classifier(self, cars_env, complaints_env):
        from repro.core import JoinConfig
        from repro.core.rewriting import RewrittenQuery
        from repro.mining import Afd

        processor = JoinProcessor(
            cars_env.web_source(),
            complaints_env.web_source(),
            cars_env.knowledge,
            complaints_env.knowledge,
            JoinConfig(),
        )
        rewritten = RewrittenQuery(
            query=SelectionQuery.equals("make", "Jeep"),
            target_attribute="model",
            evidence={"make": "Jeep"},
            estimated_precision=0.4,
            estimated_selectivity=5.0,
            afd=Afd(("make",), "model", 0.6),
        )
        [distribution] = processor._join_distributions(
            [rewritten], cars_env.knowledge, "model"
        )
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert len(distribution) > 1  # a genuine distribution over models
        # Jeep's models should dominate.
        top = max(distribution, key=distribution.get)
        assert top in ("Grand Cherokee", "Wrangler", "Liberty")
