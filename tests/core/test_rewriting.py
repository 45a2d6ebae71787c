"""Rewritten-query generation (Section 4.2, step 2a)."""

import pytest

from repro.core.rewriting import (
    rewriting_bindings,
    rewritten_from_bindings,
    target_probabilities,
)
from repro.errors import RewritingError
from repro.query import Between, Equals, SelectionQuery
from repro.relational import NULL


def _generate(query, base_set, knowledge):
    return rewritten_from_bindings(
        query, rewriting_bindings(query, base_set, knowledge), knowledge
    )


@pytest.fixture(scope="module")
def body_query():
    return SelectionQuery.equals("body_style", "Convt")


@pytest.fixture(scope="module")
def base_set(cars_env, body_query):
    return cars_env.web_source().execute(body_query)


@pytest.fixture(scope="module")
def rewritten(cars_env, body_query, base_set):
    return _generate(body_query, base_set, cars_env.knowledge)


class TestGeneration:
    def test_target_attribute_never_constrained(self, rewritten):
        assert all("body_style" not in rw.query.constrained_attributes for rw in rewritten)

    def test_one_query_per_distinct_determining_combo(self, cars_env, base_set, rewritten):
        determining = cars_env.knowledge.best_afd("body_style").determining
        combos = {
            tuple(
                cars_env.knowledge.mining_label(name, base_set.value(row, name))
                for name in determining
            )
            for row in base_set
            if not any(base_set.value(row, name) is NULL for name in determining)
        }
        assert len(rewritten) == len(combos)

    def test_queries_are_distinct(self, rewritten):
        assert len({rw.query for rw in rewritten}) == len(rewritten)

    def test_precision_and_selectivity_attached(self, rewritten):
        for rw in rewritten:
            assert 0.0 <= rw.estimated_precision <= 1.0
            assert rw.estimated_selectivity >= 0.0
            assert rw.afd is not None

    def test_convertible_models_get_high_precision(self, rewritten):
        by_model = {
            rw.evidence.get("model"): rw.estimated_precision
            for rw in rewritten
            if "model" in rw.evidence
        }
        if "Boxster" in by_model and "Camry" in by_model:
            assert by_model["Boxster"] > by_model["Camry"]

    def test_no_afd_for_any_attribute_raises(self, cars_env, base_set):
        # Mine a knowledge base under an impossible support threshold so it
        # holds no AFD at all; rewriting then has nothing to work with.
        from repro.mining import KnowledgeBase, MiningConfig, TaneConfig

        empty_kb = KnowledgeBase(
            cars_env.train,
            database_size=len(cars_env.test),
            config=MiningConfig(
                tane=TaneConfig(min_confidence=0.999999, min_support=10**9)
            ),
        )
        assert not empty_kb.afds
        query = SelectionQuery.equals("body_style", "Convt")
        with pytest.raises(RewritingError):
            _generate(query, base_set, empty_kb)


class TestMultiAttributeQueries:
    def test_each_constrained_attribute_rewritten(self, cars_env):
        query = SelectionQuery.conjunction(
            [Equals("model", "Accord"), Between("price", 12000, 22000)]
        )
        base = cars_env.web_source().execute(query)
        rewritten = _generate(query, base, cars_env.knowledge)
        targets = {rw.target_attribute for rw in rewritten}
        assert targets <= {"model", "price"}
        assert "model" in targets or "price" in targets

    def test_other_constraints_are_kept(self, cars_env):
        query = SelectionQuery.conjunction(
            [Equals("model", "Accord"), Between("price", 12000, 22000)]
        )
        base = cars_env.web_source().execute(query)
        rewritten = _generate(query, base, cars_env.knowledge)
        for rw in rewritten:
            if rw.target_attribute == "price":
                # When price determining set doesn't bind model, the
                # original model constraint must survive.
                determining = rw.afd.determining
                if "model" not in determining:
                    assert "model" in rw.query.constrained_attributes


class TestNumericDeterminingSets:
    def test_numeric_determining_values_become_ranges(self, census_env):
        query = SelectionQuery.equals("relationship", "Own-child")
        base = census_env.web_source().execute(query)
        rewritten = _generate(query, base, census_env.knowledge)
        for rw in rewritten:
            for conjunct in rw.query.conjuncts:
                if conjunct.attribute in ("age", "hours_per_week"):
                    assert isinstance(conjunct, Between)


class TestTargetProbability:
    def test_equality_target(self, cars_env):
        [probability] = target_probabilities(
            cars_env.knowledge,
            "body_style",
            (Equals("body_style", "Convt"),),
            [{"model": "Z4"}],
        )
        assert probability > 0.5

    def test_range_target_sums_bucket_mass(self, cars_env):
        [probability] = target_probabilities(
            cars_env.knowledge,
            "price",
            (Between("price", 0, 10**9),),
            [{"model": "Accord", "year": 2005}],
        )
        assert probability == pytest.approx(1.0, abs=1e-6)

    def test_impossible_range_target_is_zero(self, cars_env):
        [probability] = target_probabilities(
            cars_env.knowledge,
            "price",
            (Between("price", -100, -1),),
            [{"model": "Accord", "year": 2005}],
        )
        assert probability == 0.0
