"""Workload builders used by the experiment harness and benches."""

import pytest

from repro.errors import QpiadError
from repro.evaluation import join_workload
from tests.workloads import aggregate_workload, multi_attribute_workload
from repro.query import AggregateFunction
from repro.query.executor import certain_answers


class TestMultiAttributeWorkload:
    def test_queries_are_satisfiable_and_relevant(self, cars_env):
        queries = multi_attribute_workload(
            cars_env, ("make", "body_style"), count=4, seed=3
        )
        assert len(queries) == 4
        for query in queries:
            assert set(query.constrained_attributes) == {"make", "body_style"}
            assert cars_env.total_relevant(query) >= 1

    def test_deterministic(self, cars_env):
        a = multi_attribute_workload(cars_env, ("make", "body_style"), 3, seed=4)
        b = multi_attribute_workload(cars_env, ("make", "body_style"), 3, seed=4)
        assert a == b

    def test_single_attribute_rejected(self, cars_env):
        with pytest.raises(QpiadError):
            multi_attribute_workload(cars_env, ("make",), 3)

    def test_impossible_threshold_raises(self, cars_env):
        with pytest.raises(QpiadError):
            multi_attribute_workload(
                cars_env, ("make", "model"), 3, min_relevant=10**9
            )


class TestAggregateWorkload:
    def test_builds_per_combo_queries(self, cars_env):
        queries = aggregate_workload(
            cars_env,
            AggregateFunction.COUNT,
            subsets=[("make",), ("make", "certified")],
            combos_per_subset=3,
        )
        assert 0 < len(queries) <= 6
        for aggregate in queries:
            assert aggregate.function is AggregateFunction.COUNT
            # The combos came from the sample, so they certainly match rows.
            assert len(certain_answers(aggregate.selection, cars_env.train)) > 0

    def test_needs_subsets(self, cars_env):
        with pytest.raises(QpiadError):
            aggregate_workload(cars_env, AggregateFunction.COUNT)


class TestJoinWorkload:
    def test_certain_join_is_non_empty(self, cars_env, complaints_env):
        queries = join_workload(
            cars_env,
            complaints_env,
            join_attribute="model",
            left_attribute="model",
            right_attribute="general_component",
            count=3,
        )
        assert len(queries) == 3
        for join in queries:
            left = certain_answers(join.left, cars_env.test)
            right = certain_answers(join.right, complaints_env.test)
            left_models = set(left.column("model"))
            right_models = set(right.column("model"))
            assert left_models & right_models

    def test_deterministic(self, cars_env, complaints_env):
        build = lambda: join_workload(
            cars_env, complaints_env, "model", "model", "general_component", 2, seed=8
        )
        assert [repr(q) for q in build()] == [repr(q) for q in build()]
