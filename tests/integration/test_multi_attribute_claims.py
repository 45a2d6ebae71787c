"""Multi-attribute selection queries: the §6.2 'multi attribute' workload.

The paper's evaluation "randomly formulate[s] single attribute and multi
attribute selection queries"; the single-attribute claims live in
test_paper_claims.  These tests check the same ordering holds for
conjunctive queries, where rewriting runs once per constrained attribute.
"""

import pytest

from repro.core import QpiadConfig
from repro.evaluation import (
    average_precision,
    run_all_returned,
    run_qpiad,
)
from repro.relational import is_null
from tests.workloads import multi_attribute_workload


@pytest.fixture(scope="module")
def workload(cars_env):
    return multi_attribute_workload(
        cars_env, ("make", "body_style"), count=4, seed=21
    )


class TestMultiAttributeRetrieval:
    def test_possible_answers_have_exactly_one_constrained_null(
        self, cars_env, workload
    ):
        schema = cars_env.test.schema
        for query in workload:
            outcome = run_qpiad(cars_env, query, QpiadConfig(k=10))
            for answer in outcome.result.ranked:
                nulls = sum(
                    1
                    for name in query.constrained_attributes
                    if is_null(answer.row[schema.index_of(name)])
                )
                assert nulls == 1

    def test_present_constrained_values_match_the_query(self, cars_env, workload):
        schema = cars_env.test.schema
        for query in workload:
            outcome = run_qpiad(cars_env, query, QpiadConfig(k=10))
            for answer in outcome.result.ranked:
                for conjunct in query.conjuncts:
                    attribute = conjunct.attributes()[0]
                    value = answer.row[schema.index_of(attribute)]
                    if not is_null(value):
                        assert conjunct.matches(answer.row, schema)

    def test_qpiad_beats_all_returned_on_conjunctions(self, cars_env, workload):
        gains = []
        for query in workload:
            qpiad = run_qpiad(cars_env, query, QpiadConfig(alpha=0.0, k=10))
            baseline = run_all_returned(cars_env, query)
            gains.append(
                average_precision(qpiad.relevance, qpiad.total_relevant)
                - average_precision(baseline.relevance, baseline.total_relevant)
            )
        assert sum(gains) / len(gains) > 0.0
        assert sum(1 for gain in gains if gain >= 0) >= len(gains) - 1

    def test_rewriting_targets_both_attributes_when_it_can(self, cars_env, workload):
        from repro.core.rewriting import rewriting_bindings, rewritten_from_bindings

        knowledge = cars_env.knowledge
        covered = set()
        for query in workload:
            base = cars_env.web_source().execute(query)
            bindings = rewriting_bindings(query, base, knowledge)
            for rewritten in rewritten_from_bindings(query, bindings, knowledge):
                covered.add(rewritten.target_attribute)
        assert {"make", "body_style"} <= covered
