"""Every NULL completion against the per-item loop it replaced.

``KnowledgeBase.value_distributions`` and ``KnowledgeBase.completions``,
and ``row_probabilities`` on top of ``target_probabilities``, are the only
ways a NULL gets completed.  Each caller asks one batch per relation,
attribute or join side, and the streaming join asks a one-row batch per
arriving row.  That is only correct if every caller
comes out exactly as its old loop made it, one posterior at a time with
a hand-built evidence dict.  Those loops are kept here as references (each
posterior a batch of one), and the two are compared by ``repr`` and by
``float.hex``, on Cars and Census, over a categorical target, a
discretized numeric one (``price``, ``age``) and a range target.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    AggregateProcessor,
    JoinConfig,
    JoinProcessor,
    all_ranked,
)
from repro.core.joins import _complete_side
from repro.core.rewriting import row_probabilities, target_probabilities
from repro.errors import MiningError, QueryError
from repro.evaluation import classification_accuracy
from repro.mining import KnowledgeBase, impute
from repro.mining.nbc import NaiveBayesClassifier
from repro.planner import QueryPlanner
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Between,
    Equals,
    JoinQuery,
    SelectionQuery,
)
from repro.relational import NULL, Relation, Schema, is_null

# ----------------------------------------------------------------------
# The per-item references
# ----------------------------------------------------------------------


def _posterior(knowledge, attribute, evidence, method=None):
    return knowledge.value_distributions(attribute, [evidence], method)[0]


def _predict_value(knowledge, attribute, evidence, method=None):
    posterior = _posterior(knowledge, attribute, evidence, method)
    if not posterior:
        raise MiningError(f"no distribution available for {attribute!r}")
    label = max(posterior, key=lambda candidate: posterior[candidate])
    return label, posterior[label]


def _reference_impute(relation, knowledge, attributes, min_confidence=0.0, method=None):
    """``impute``'s row-major loop: one prediction per NULL cell."""
    schema = relation.schema
    rows, imputed = [], []
    skipped_low = skipped_unpredictable = 0
    for row_index, row in enumerate(relation):
        values = list(row)
        null_attributes = [name for name in attributes if is_null(row[schema.index_of(name)])]
        if null_attributes:
            evidence = {
                name: value for name, value in zip(schema.names, row) if not is_null(value)
            }
            for name in null_attributes:
                try:
                    predicted, confidence = _predict_value(knowledge, name, evidence, method)
                except MiningError:
                    skipped_unpredictable += 1
                    continue
                if confidence < min_confidence:
                    skipped_low += 1
                    continue
                values[schema.index_of(name)] = predicted
                imputed.append((row_index, name, predicted, confidence))
        rows.append(tuple(values))
    return rows, imputed, skipped_low, skipped_unpredictable


def _reference_accuracy(env, method, attributes=None, limit=None):
    """``classification_accuracy``'s loop: one prediction per masked cell."""
    test_rows = set(env.test.rows)
    schema = env.dataset.incomplete.schema
    correct = total = 0
    for cell in env.dataset.masked:
        if attributes is not None and cell.attribute not in attributes:
            continue
        row = env.dataset.incomplete.rows[cell.row_index]
        if row not in test_rows:
            continue
        evidence = {
            name: value
            for name, value in zip(schema.names, row)
            if not is_null(value) and name != cell.attribute
        }
        predicted, __ = _predict_value(env.knowledge, cell.attribute, evidence, method)
        if predicted == cell.true_value:
            correct += 1
        total += 1
        if limit is not None and total >= limit:
            break
    return correct / total


def _reference_accumulate(self, accumulator, aggregate, rows, knowledge, predict, weight=1.0):
    """``AggregateProcessor._accumulate``: one prediction per NULL row."""
    if aggregate.function is AggregateFunction.COUNT and aggregate.attribute == "*":
        accumulator.add_count(weight * len(rows))
        return
    attribute = aggregate.attribute
    index = rows.schema.index_of(attribute)
    values = []
    for row in rows:
        value = row[index]
        if is_null(value):
            if not predict:
                continue
            evidence = {
                name: v
                for name, v in zip(rows.schema.names, row)
                if not is_null(v) and name != attribute
            }
            predicted, __ = _predict_value(knowledge, attribute, evidence, self.classifier_method)
            if is_null(predicted) or not isinstance(predicted, (int, float)):
                continue
            values.append(float(predicted))
        else:
            values.append(float(value))
    accumulator.add(values, weight=weight)


def _reference_argmax_matches(self, ordered, selection, knowledge):
    """``QueryPlanner._argmax_matches``: one posterior per candidate."""
    matches = []
    for rewritten in ordered:
        try:
            value = selection.equality_value(rewritten.target_attribute)
        except QueryError:
            matches.append(rewritten.estimated_precision > 0.5)
            continue
        posterior = _posterior(
            knowledge, rewritten.target_attribute, rewritten.evidence,
            self.config.classifier_method,
        )
        matches.append(
            bool(posterior) and max(posterior, key=lambda c: posterior[c]) == value
        )
    return matches


def _reference_join_distributions(self, candidates, knowledge, join_attribute):
    """``JoinProcessor._join_distribution``, once per candidate."""
    distributions = []
    for rewritten in candidates:
        bound = [
            conjunct.value
            for conjunct in rewritten.query.conjuncts
            if isinstance(conjunct, Equals) and conjunct.attribute == join_attribute
        ]
        if bound:
            distributions.append({bound[0]: 1.0})
        elif join_attribute in rewritten.evidence:
            distributions.append({rewritten.evidence[join_attribute]: 1.0})
        else:
            distributions.append(
                _posterior(
                    knowledge, join_attribute, rewritten.evidence,
                    self.config.classifier_method,
                )
            )
    return distributions


def _reference_effective_join_value(
    self, row, join_index, source, knowledge, join_attribute, confidence, completed
):
    # Every NULL is completed alone, *completed*'s batch fills included.
    value = row[join_index]
    if not is_null(value):
        return value, confidence
    evidence = {
        name: v
        for name, v in zip(source.schema.names, row)
        if not is_null(v) and name != join_attribute
    }
    try:
        predicted, probability = _predict_value(
            knowledge, join_attribute, evidence, self.config.classifier_method
        )
    except MiningError:
        return None, 0.0
    return predicted, confidence * probability


def _reference_joint(knowledge, query, schema, row, method=None):
    """``row_probabilities`` for one row: a product of batches of one."""
    evidence = {name: value for name, value in zip(schema.names, row) if not is_null(value)}
    probability = 1.0
    for attribute in query.constrained_attributes:
        if not is_null(row[schema.index_of(attribute)]):
            continue
        probability *= target_probabilities(
            knowledge, attribute, query.conjuncts_on(attribute), [evidence], method
        )[0]
    return probability


def _reference_all_ranked(source, query, knowledge, method=None):
    """``all_ranked``'s loop, scoring each row by its first NULL attribute
    (every row has exactly one at ``max_nulls=1``)."""
    schema = source.schema
    possible = source.execute_null_binding(query, max_nulls=1)
    answers = []
    for row in possible:
        attribute = next(
            name for name in query.constrained_attributes
            if is_null(row[schema.index_of(name)])
        )
        evidence = {
            name: value
            for name, value in zip(schema.names, row)
            if not is_null(value) and name != attribute
        }
        confidence = target_probabilities(
            knowledge, attribute, query.conjuncts_on(attribute), [evidence], method
        )[0]
        answers.append((row, confidence, attribute))
    answers.sort(key=lambda answer: -answer[1])
    return answers


def _hex(value):
    return value.hex() if isinstance(value, float) else repr(value)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

IMPUTE_ATTRIBUTES = {
    "cars": ("body_style", "make", "price"),
    "census": ("occupation", "age", "relationship"),
}

RANKED_QUERIES = {
    "cars": (
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery(Between("price", 15000, 30000)),
        SelectionQuery.conjunction([Equals("make", "BMW"), Equals("body_style", "Convt")]),
    ),
    "census": (
        SelectionQuery.equals("occupation", "Sales"),
        SelectionQuery(Between("age", 30, 45)),
    ),
}

AGGREGATES = {
    "cars": (
        AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"), AggregateFunction.SUM, "price"
        ),
        AggregateQuery(
            SelectionQuery(Between("price", 15000, 30000)), AggregateFunction.AVG, "mileage"
        ),
        AggregateQuery(SelectionQuery.equals("make", "Honda"), AggregateFunction.COUNT),
    ),
    "census": (
        AggregateQuery(
            SelectionQuery.equals("relationship", "Own-child"), AggregateFunction.AVG, "age"
        ),
        AggregateQuery(
            SelectionQuery(Between("age", 30, 40)), AggregateFunction.SUM, "hours_per_week"
        ),
    ),
}


@pytest.fixture(scope="module")
def envs(cars_env, census_env):
    return {"cars": cars_env, "census": census_env}


def _rendered_report(report):
    return (
        [repr(row) for row in report.relation],
        [
            (cell.row_index, cell.attribute, repr(cell.value), cell.confidence.hex())
            for cell in report.imputed
        ],
        report.skipped_low_confidence,
        report.skipped_unpredictable,
    )


class TestImpute:
    @pytest.mark.parametrize("min_confidence", (0.0, 0.6))
    @pytest.mark.parametrize("dataset", ("cars", "census"))
    def test_matches_per_cell_loop(self, envs, dataset, min_confidence):
        env = envs[dataset]
        attributes = IMPUTE_ATTRIBUTES[dataset]
        report = impute(env.test, env.knowledge, attributes, min_confidence)
        rows, imputed, skipped_low, skipped_unpredictable = _reference_impute(
            env.test, env.knowledge, attributes, min_confidence
        )
        expected = (
            [repr(row) for row in rows],
            [
                (row_index, name, repr(value), confidence.hex())
                for row_index, name, value, confidence in imputed
            ],
            skipped_low,
            skipped_unpredictable,
        )
        assert _rendered_report(report) == expected
        assert report.imputed

    def test_unpredictable_attribute_is_skipped_cell_by_cell(self):
        schema = Schema.of("f", "c", "z")
        sample = Relation(schema, [("a", "p", NULL), ("b", "q", NULL)] * 6)
        knowledge = KnowledgeBase(sample, database_size=120)
        relation = Relation(
            schema, [("a", NULL, NULL), ("b", "q", NULL), (NULL, NULL, "x")]
        )
        report = impute(relation, knowledge, ["z", "c"])
        rows, imputed, skipped_low, skipped_unpredictable = _reference_impute(
            relation, knowledge, ["z", "c"]
        )
        assert report.skipped_unpredictable == skipped_unpredictable == 2
        assert report.skipped_low_confidence == skipped_low == 0
        assert [repr(row) for row in report.relation] == [repr(row) for row in rows]
        assert [(c.row_index, c.attribute) for c in report.imputed] == [
            (row_index, name) for row_index, name, __, __ in imputed
        ]


class TestClassificationAccuracy:
    @pytest.mark.parametrize("method", ("hybrid-one-afd", "all-attributes", "ensemble"))
    @pytest.mark.parametrize("dataset", ("cars", "census"))
    def test_matches_per_cell_loop(self, envs, dataset, method):
        env = envs[dataset]
        attributes = IMPUTE_ATTRIBUTES[dataset]
        assert classification_accuracy(env, method, attributes).hex() == (
            _reference_accuracy(env, method, attributes).hex()
        )
        assert classification_accuracy(env, method, attributes, limit=25).hex() == (
            _reference_accuracy(env, method, attributes, limit=25).hex()
        )


def _rendered_aggregate(result):
    return (
        _hex(result.certain_value),
        _hex(result.predicted_value),
        result.certain_count,
        result.possible_count,
        result.included_queries,
        result.considered_queries,
    )


class TestAggregates:
    @pytest.mark.parametrize("rule", ("argmax", "fractional"))
    @pytest.mark.parametrize("dataset", ("cars", "census"))
    def test_matches_per_row_loop(self, envs, dataset, rule, monkeypatch):
        env = envs[dataset]
        for aggregate in AGGREGATES[dataset]:
            processor = AggregateProcessor(env.web_source(), env.knowledge, inclusion_rule=rule)
            actual = _rendered_aggregate(processor.query(aggregate))
            with monkeypatch.context() as patched:
                patched.setattr(AggregateProcessor, "_accumulate", _reference_accumulate)
                patched.setattr(QueryPlanner, "_argmax_matches", _reference_argmax_matches)
                processor = AggregateProcessor(
                    env.web_source(), env.knowledge, inclusion_rule=rule
                )
                expected = _rendered_aggregate(processor.query(aggregate))
            assert actual == expected


class TestAllRanked:
    @pytest.mark.parametrize("dataset", ("cars", "census"))
    def test_one_null_rows_match_per_row_loop(self, envs, dataset):
        env = envs[dataset]
        for query in RANKED_QUERIES[dataset]:
            result = all_ranked(env.permissive_source(), query, env.knowledge)
            expected = _reference_all_ranked(env.permissive_source(), query, env.knowledge)
            assert [
                (repr(answer.row), answer.confidence.hex(), answer.target_attribute)
                for answer in result.ranked
            ] == [(repr(row), confidence.hex(), name) for row, confidence, name in expected]
            assert result.ranked


class TestRowProbabilities:
    @pytest.mark.parametrize("dataset", ("cars", "census"))
    def test_matches_per_row_product(self, envs, dataset):
        env = envs[dataset]
        schema = env.test.schema
        for query in RANKED_QUERIES[dataset]:
            rows = list(env.test)[:300]
            actual = row_probabilities(env.knowledge, query, schema, rows)
            expected = [_reference_joint(env.knowledge, query, schema, row) for row in rows]
            assert [p.hex() for p in actual] == [p.hex() for p in expected]
            assert any(p != 1.0 for p in actual)

    def test_several_nulls_and_a_range_target(self, cars_env):
        schema = cars_env.test.schema
        blanked = {schema.index_of("make"), schema.index_of("price")}
        query = SelectionQuery.conjunction(
            [Equals("make", "BMW"), Between("price", 15000, 30000)]
        )
        complete = [row for row in cars_env.test if cars_env.test.is_complete_row(row)][:40]
        rows = [
            tuple(NULL if i in blanked else value for i, value in enumerate(row))
            for row in complete
        ] + list(cars_env.test)[:60]
        actual = row_probabilities(cars_env.knowledge, query, schema, rows)
        expected = [_reference_joint(cars_env.knowledge, query, schema, row) for row in rows]
        assert [p.hex() for p in actual] == [p.hex() for p in expected]



JOIN_QUERIES = (
    JoinQuery(
        SelectionQuery.equals("model", "Grand Cherokee"),
        SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
        "model",
    ),
    JoinQuery(
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.equals("crash", "Yes"),
        "model",
    ),
)


def _rendered_join(result):
    return (
        [
            (
                repr(answer.left_row),
                repr(answer.right_row),
                repr(answer.join_value),
                answer.confidence.hex(),
                answer.certain,
            )
            for answer in result.answers
        ],
        result.pairs_considered,
        result.pairs_issued,
        result.component_queries_issued,
    )


class TestJoins:
    @pytest.mark.parametrize("join", JOIN_QUERIES, ids=str)
    def test_matches_per_candidate_and_per_row_loops(
        self, cars_env, complaints_env, join, monkeypatch
    ):
        def run():
            processor = JoinProcessor(
                cars_env.web_source(),
                complaints_env.web_source(),
                cars_env.knowledge,
                complaints_env.knowledge,
                JoinConfig(alpha=0.5, k_pairs=10),
            )
            return _rendered_join(processor.query(join))

        actual = run()
        with monkeypatch.context() as patched:
            patched.setattr(
                JoinProcessor, "_join_distributions", _reference_join_distributions
            )
            patched.setattr(
                JoinProcessor, "_effective_join_value", _reference_effective_join_value
            )
            expected = run()
        assert actual == expected
        assert any(not certain for *__, certain in actual[0])



# ----------------------------------------------------------------------
# One classifier call per relation, attribute or side, counted
# ----------------------------------------------------------------------


@pytest.fixture()
def classifier_calls(monkeypatch):
    """Each ``NaiveBayesClassifier.distributions`` call's class attribute."""
    calls: Counter = Counter()
    original = NaiveBayesClassifier.distributions

    def counted(self, evidences):
        calls[self.class_attribute] += 1
        return original(self, evidences)

    monkeypatch.setattr(NaiveBayesClassifier, "distributions", counted)
    return calls


class TestOneBatchPerCaller:
    def test_impute_asks_once_per_attribute(self, cars_env, classifier_calls):
        report = impute(cars_env.test, cars_env.knowledge, ["body_style", "make"])
        assert len(report.imputed) > 2
        assert classifier_calls == Counter({"body_style": 1, "make": 1})

    def test_classification_accuracy_asks_once_per_attribute(
        self, cars_env, classifier_calls
    ):
        classification_accuracy(cars_env, "hybrid-one-afd", ["body_style"])
        assert classifier_calls == Counter({"body_style": 1})

    def test_aggregate_asks_once_per_folded_relation(self, cars_env, classifier_calls):
        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"), AggregateFunction.SUM, "price"
        )
        processor = AggregateProcessor(cars_env.web_source(), cars_env.knowledge)
        result = processor.query(aggregate)
        # Rewriting scores the candidates in one batch and the argmax gate
        # asks one more; then each folded relation (the base set and every
        # included rewritten query's rows) asks at most once for its NULL
        # prices.
        assert classifier_calls["body_style"] == 2
        assert 0 < classifier_calls["price"] <= 1 + result.included_queries
        assert result.included_queries > 1

    def test_join_asks_once_per_side(self, cars_env, complaints_env, classifier_calls):
        processor = JoinProcessor(
            cars_env.web_source(),
            complaints_env.web_source(),
            cars_env.knowledge,
            complaints_env.knowledge,
        )
        query = SelectionQuery.equals("model", "Grand Cherokee")
        base_set = cars_env.web_source().execute(query)
        sides = processor._build_sides(
            _complete_side(query, base_set, "model"),
            base_set,
            processor._left_planner,
            cars_env.knowledge,
            "model",
        )
        unbound = [
            side for side in sides if side.is_rewritten and len(side.join_distribution) > 1
        ]
        assert len(unbound) > 1
        # The join attribute is also the rewritten target here: rewriting
        # scores the candidates in one batch, and the unbound candidates'
        # join distributions are the posteriors that batch kept.
        assert classifier_calls["model"] == 1
