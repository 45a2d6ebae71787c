"""Batched candidate scoring against the per-candidate loop it replaced.

``rewritten_from_bindings`` builds a binding's rewritten queries first and
then scores them together: one ``value_distributions`` batch for precision
and one ``estimate_all`` batch for selectivity.  That is only correct if
every candidate comes out exactly as the old loop made it, one
``target_probability`` and one ``selectivity.estimate`` per candidate, with
each posterior re-summing its counters.  That loop is kept here as the
reference, and the two are compared by ``repr`` and by ``float.hex`` of
every estimate.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import pytest

from repro.core.rewriting import (
    RewrittenQuery,
    _determining_predicate,
    rewriting_bindings,
    rewritten_from_bindings,
)
from repro.datasets.scale import scaled_incomplete
from repro.mining import KnowledgeBase, KnowledgeRefresher, KnowledgeStore, MiningConfig
from repro.mining.afd import Afd
from repro.mining.classifiers import (
    CLASSIFIER_METHODS,
    EnsembleAfdClassifier,
    _SingleNbcClassifier,
)
from repro.mining.discretization import Discretizer
from repro.mining.nbc import NaiveBayesClassifier
from repro.mining.selectivity import SelectivityEstimator
from repro.planner import PlanCache, QueryPlanner
from repro.query import (
    And,
    Between,
    Comparison,
    Equals,
    NotEquals,
    OneOf,
    SelectionQuery,
    certain_answers,
    certain_count,
)
from repro.relational import NULL, AttributeType, Relation, Schema
from repro.relational.values import is_null
from repro.sources.sampler import split_relation

# ----------------------------------------------------------------------
# The per-candidate reference
# ----------------------------------------------------------------------


def _reference_likelihood(nbc, feature, value, class_value):
    """The m-estimate as it was computed per call, re-summing the counter."""
    per_class = nbc._joint_counts[feature].get(class_value, ())
    joint = per_class[value] if per_class and value in per_class else 0
    class_total = sum(per_class.values()) if per_class else 0
    p_uniform = 1.0 / nbc._domain_sizes[feature]
    return (joint + nbc.m * p_uniform) / (class_total + nbc.m)


def _reference_nbc_distribution(nbc, evidence):
    scores = {}
    for class_value in nbc._class_counts:
        score = nbc.prior(class_value)
        for feature in nbc.features:
            value = evidence.get(feature)
            if value is None or is_null(value):
                continue
            score *= _reference_likelihood(nbc, feature, value, class_value)
        scores[class_value] = score
    total = sum(scores.values())
    if total <= 0.0:
        return {value: nbc.prior(value) for value in scores}
    return {value: score / total for value, score in scores.items()}


def _reference_distribution(classifier, evidence):
    if isinstance(classifier, _SingleNbcClassifier):
        return _reference_nbc_distribution(classifier._nbc, evidence)
    if isinstance(classifier, EnsembleAfdClassifier):
        combined = {}
        total_weight = sum(weight for weight, __ in classifier._members)
        for weight, nbc in classifier._members:
            for value, probability in _reference_nbc_distribution(nbc, evidence).items():
                combined[value] = combined.get(value, 0.0) + weight * probability
        return {value: score / total_weight for value, score in combined.items()}
    return classifier.distribution(evidence)  # association rules: one evidence


def _reference_value_distribution(knowledge, attribute, evidence, method):
    prepared = knowledge._prepare_evidence(evidence)
    return _reference_distribution(knowledge.classifier(attribute, method), prepared)


def _reference_target_probability(knowledge, attribute, target_conjuncts, evidence, method):
    posterior = _reference_value_distribution(knowledge, attribute, evidence, method)
    if len(target_conjuncts) == 1 and isinstance(target_conjuncts[0], Equals):
        return posterior.get(target_conjuncts[0].value, 0.0)
    probability = 0.0
    probe_schema = Schema.of(attribute)
    for label, mass in posterior.items():
        value = knowledge.representative_value(attribute, label)
        if all(conjunct.matches((value,), probe_schema) for conjunct in target_conjuncts):
            probability += mass
    return probability


def _reference_estimate(selectivity, query):
    count = certain_count(query, selectivity.sample)
    return count * selectivity.sample_ratio * selectivity.incomplete_fraction


def _reference_candidates(query, bindings, knowledge, method):
    """The loop that scored one candidate at a time."""
    candidates = []
    seen = set()
    for attribute, determining, combos in bindings:
        best_afd = knowledge.best_afd(attribute)
        target_conjuncts = query.conjuncts_on(attribute)
        for combo in combos:
            replacements = [
                _determining_predicate(knowledge, name, value)
                for name, value in zip(determining, combo)
            ]
            rewritten = query.replacing(attribute, replacements)
            for name, replacement in zip(determining, replacements):
                extra = [c for c in rewritten.conjuncts_on(name) if c != replacement]
                if extra:
                    rewritten = rewritten.replacing(name, [replacement])
            key = (attribute, rewritten)
            if key in seen:
                continue
            seen.add(key)
            evidence = dict(zip(determining, combo))
            candidates.append(
                RewrittenQuery(
                    query=rewritten,
                    target_attribute=attribute,
                    evidence=evidence,
                    estimated_precision=_reference_target_probability(
                        knowledge, attribute, target_conjuncts, evidence, method
                    ),
                    estimated_selectivity=_reference_estimate(
                        knowledge.selectivity, rewritten
                    ),
                    afd=best_afd,
                )
            )
    return candidates


def _rendered(candidates):
    return [
        (
            repr(candidate),
            repr(candidate.query),
            repr(candidate.evidence),
            repr(candidate.afd),
            candidate.target_attribute,
            candidate.estimated_precision.hex(),
            candidate.estimated_selectivity.hex(),
        )
        for candidate in candidates
    ]


def _assert_matches_reference(query, base_set, knowledge, method):
    bindings = rewriting_bindings(query, base_set, knowledge)
    actual = rewritten_from_bindings(query, bindings, knowledge, method)
    expected = _reference_candidates(query, bindings, knowledge, method)
    assert _rendered(actual) == _rendered(expected)
    return actual


def _rendered_posteriors(posteriors):
    return [
        [(repr(value), probability.hex()) for value, probability in posterior.items()]
        for posterior in posteriors
    ]


# ----------------------------------------------------------------------
# Edge values: NULL, NaN, ±0.0, 1/1.0/True, Decimal, bucket edges
# ----------------------------------------------------------------------

SCHEMA = Schema.of(
    "cat",
    ("num", AttributeType.NUMERIC),
    "other",
    "t1",
    ("t2", AttributeType.NUMERIC),
)
#: ``num`` is discretized at 0, 20 and 40 (so 20 and 20.0 sit on an edge).
BINS = {
    "num": ((0.0, 20.0, 40.0), -10.0, 60.0),
    "t2": ((10.0,), 0.0, 20.0),
}
SHARED_NAN = math.nan
CATEGORICAL = (
    NULL, "a", "b", 1, 1.0, True, 0, 0.0, -0.0, False,
    SHARED_NAN, float("nan"), Decimal("1"), Decimal("1.0"), Decimal("2.5"),
)
NUMERIC = (
    NULL, 5, 5.0, True, 7.5, 0, 0.0, -0.0, 19.999, 20, 20.0, 25,
    SHARED_NAN, float("nan"), Decimal("5"), Decimal("35.5"), 1e9, -1e9,
)
OTHER = (NULL, "p", "q", 1, True, 2.0)
TARGET_1 = ("x", "w", "x", 1, True, NULL)
TARGET_2 = (5, 5.0, -0.0, 0.0, 7.5, 10, 12, Decimal("2.5"), SHARED_NAN, 30, NULL)

EDGE_QUERIES = (
    SelectionQuery(Equals("t1", "x")),
    SelectionQuery(Equals("t2", 5)),
    SelectionQuery(Between("t2", 0, 10)),
    SelectionQuery(Comparison("t2", "<", 5)),
    SelectionQuery(Comparison("t2", ">=", -0.0)),
    SelectionQuery(And([Equals("t1", "x"), Between("t2", 0, 10)])),
    SelectionQuery(And([Equals("t1", "x"), Equals("cat", "a")])),
    SelectionQuery(And([NotEquals("t1", "w"), OneOf("t2", (5, 12))])),
)


def _random_rows(rng, count):
    return [
        (
            rng.choice(CATEGORICAL),
            rng.choice(NUMERIC),
            rng.choice(OTHER),
            rng.choice(TARGET_1),
            rng.choice(TARGET_2),
        )
        for _ in range(count)
    ]


def _pinned_knowledge(sample):
    """A generation with AFDs pinned: ``t1`` is determined by ``cat, num``
    (and, more weakly, ``other``, so the ensemble has two members) and
    ``t2`` by ``num, other``."""
    discretizer = Discretizer.from_bins(BINS)
    afds = (
        Afd(("cat", "num"), "t1", 0.9),
        Afd(("other",), "t1", 0.6),
        Afd(("num", "other"), "t2", 0.8),
    )
    return KnowledgeBase._from_parts(
        config=MiningConfig(),
        sample=sample,
        database_size=10 * len(sample),
        discretizer=discretizer,
        all_afds=afds,
        afds=afds,
        akeys=(),
        selectivity=SelectivityEstimator.from_sample(sample, 10 * len(sample)),
    )


EDGE_KNOWLEDGE = _pinned_knowledge(Relation(SCHEMA, _random_rows(random.Random(99), 120)))


class TestEdgeValues:
    @pytest.mark.parametrize("method", CLASSIFIER_METHODS)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("query", EDGE_QUERIES, ids=str)
    def test_seeded_mixed_value_base_sets(self, query, seed, method):
        rng = random.Random(seed)
        base_set = Relation(SCHEMA, _random_rows(rng, rng.randint(1, 80)))
        _assert_matches_reference(query, base_set, EDGE_KNOWLEDGE, method)

    @pytest.mark.parametrize("method", CLASSIFIER_METHODS)
    def test_equal_values_that_print_differently(self, method):
        rows = [
            ("a", -0.0, True, "x", 5),
            ("b", 0.0, 1, "x", 5),
            (True, 5, 1.0, "x", 5),
            (1.0, 25, True, "x", 5),
            (Decimal("1"), Decimal("5"), 1, "x", 5),
            (0.0, 20, "p", "x", 5),
            (-0.0, 5.0, "q", "x", 5),
            (SHARED_NAN, SHARED_NAN, "p", "x", 5),
            (SHARED_NAN, float("nan"), "q", "x", 5),
            (float("nan"), 1e9, "p", "x", 5),
        ]
        query = SelectionQuery(And([Equals("t1", "x"), Between("t2", 0, 10)]))
        candidates = _assert_matches_reference(
            query, Relation(SCHEMA, rows), EDGE_KNOWLEDGE, method
        )
        assert {candidate.target_attribute for candidate in candidates} == {"t1", "t2"}


# ----------------------------------------------------------------------
# Mined Cars and Census knowledge
# ----------------------------------------------------------------------

MINED_QUERIES = {
    "cars": (
        SelectionQuery(Equals("body_style", "Sedan")),
        SelectionQuery(Between("price", 8000, 16000)),
        SelectionQuery(Comparison("year", ">=", 2004)),
        SelectionQuery(OneOf("make", ("Honda", "BMW", "Toyota"))),
        SelectionQuery(And([Equals("make", "Honda"), Between("mileage", 0, 60000)])),
        SelectionQuery(And([Between("price", 10000, 20000), Equals("model", "Corolla")])),
    ),
    "census": (
        SelectionQuery(Equals("relationship", "Own-child")),
        SelectionQuery(Between("hours_per_week", 35, 42)),
        SelectionQuery(Comparison("age", ">", 50)),
        SelectionQuery(And([Equals("education", "Bachelors"), Equals("sex", "Female")])),
        SelectionQuery(And([Between("age", 30, 40), Equals("occupation", "Sales")])),
    ),
}


@pytest.fixture(scope="module")
def mined():
    """Knowledge mined from each dataset's ×1 incomplete relation."""
    knowledge = {}
    for name in MINED_QUERIES:
        relation = scaled_incomplete(name, 1).incomplete
        knowledge[name] = (relation, KnowledgeBase(relation, database_size=10 * len(relation)))
    return knowledge


CASES = [(name, query) for name, queries in MINED_QUERIES.items() for query in queries]


class TestMinedKnowledge:
    @pytest.mark.parametrize("method", CLASSIFIER_METHODS)
    @pytest.mark.parametrize("dataset,query", CASES, ids=str)
    def test_matches_per_candidate_loop(self, mined, dataset, query, method):
        relation, knowledge = mined[dataset]
        candidates = _assert_matches_reference(
            query, certain_answers(query, relation), knowledge, method
        )
        assert candidates

    @pytest.mark.parametrize("method", CLASSIFIER_METHODS)
    @pytest.mark.parametrize("query", MINED_QUERIES["census"], ids=str)
    def test_folded_generation(self, census_fold, query, method):
        """A refreshed generation scores exactly like the reference."""
        relation, __, folded = census_fold
        _assert_matches_reference(query, certain_answers(query, relation), folded, method)


NBC_METHODS = ("hybrid-one-afd", "best-afd", "ensemble", "all-attributes")
FOLD_ATTRIBUTES = ("occupation", "relationship", "age", "hours_per_week", "education", "sex")


@pytest.fixture(scope="module")
def census_fold():
    """Census knowledge before and after one refresh.

    Every NBC-backed classifier of :data:`FOLD_ATTRIBUTES` is built on the
    base first, so a refreshed generation that reused the base's
    classifiers would show the base's classes.  The batch brings ``age``
    values the base never saw.
    """
    incomplete = scaled_incomplete("census", 1).incomplete
    schema, rows = incomplete.schema, incomplete.rows
    store = KnowledgeStore(KnowledgeBase(Relation(schema, rows[:200]), database_size=4500))
    base = store.current
    for method in NBC_METHODS:
        for attribute in FOLD_ATTRIBUTES:
            base.classifier(attribute, method)
    refresher = KnowledgeRefresher(store)
    assert refresher.refresh(Relation(schema, rows[100:300])).mode == "full"
    return incomplete, base, store.current


# ----------------------------------------------------------------------
# The batch equals its batches of one
# ----------------------------------------------------------------------

EVIDENCES = (
    {"f": "a", "g": "u"},
    {"f": "a"},
    {"f": NULL, "g": "u"},
    {"g": None},
    {},
    {"f": "unseen", "g": "u"},
    {"f": "b", "g": "v", "ignored": 3},
    {"f": "a", "g": "u"},
)


def _small_relation():
    schema = Schema.of("f", "g", "c")
    return Relation(
        schema,
        [
            ("a", "u", "q"),
            ("a", "v", "p"),
            ("b", NULL, "q"),
            ("b", "u", "r"),
            (NULL, "v", "p"),
            ("a", "u", NULL),
            ("b", "v", "r"),
        ],
    )


class TestDistributions:
    @pytest.mark.parametrize("m", (1.0, 0.5, 0.0))
    def test_nbc_batch_matches_each_evidence_alone(self, m):
        nbc = NaiveBayesClassifier(_small_relation(), "c", ("f", "g"), m=m)
        batch = nbc.distributions(list(EVIDENCES))
        assert _rendered_posteriors(batch) == _rendered_posteriors(
            [nbc.distribution(evidence) for evidence in EVIDENCES]
        )
        assert _rendered_posteriors(batch) == _rendered_posteriors(
            [_reference_nbc_distribution(nbc, evidence) for evidence in EVIDENCES]
        )

    def test_m_zero_all_zero_scores_fall_back_to_the_prior(self):
        nbc = NaiveBayesClassifier(_small_relation(), "c", ("f", "g"), m=0.0)
        posterior = nbc.distributions([{"f": "unseen"}])[0]
        assert posterior == {value: nbc.prior(value) for value in ("q", "p", "r")}
        assert list(posterior) == ["q", "p", "r"]

    def test_empty_batch(self):
        nbc = NaiveBayesClassifier(_small_relation(), "c", ("f", "g"))
        assert nbc.distributions([]) == []

    @pytest.mark.parametrize("method", CLASSIFIER_METHODS)
    def test_knowledge_batch_matches_each_evidence_alone(self, mined, method):
        relation, knowledge = mined["census"]
        names = relation.schema.names
        evidences = [
            {name: value for name, value in zip(names, row) if name != "occupation"}
            for row in relation.rows[:40]
        ]
        evidences += [{}, {"age": NULL, "education": "Bachelors"}, {"age": 1e9}]
        batch = knowledge.value_distributions("occupation", evidences, method)
        singles = [
            knowledge.value_distribution("occupation", evidence, method)
            for evidence in evidences
        ]
        references = [
            _reference_value_distribution(knowledge, "occupation", evidence, method)
            for evidence in evidences
        ]
        assert _rendered_posteriors(batch) == _rendered_posteriors(singles)
        assert _rendered_posteriors(batch) == _rendered_posteriors(references)


# ----------------------------------------------------------------------
# Posterior class order and exact ties
# ----------------------------------------------------------------------

def _first_seen(relation, attribute):
    return list(dict.fromkeys(v for v in relation.column(attribute) if not is_null(v)))


class TestClassOrder:
    @pytest.mark.parametrize("method", NBC_METHODS)
    @pytest.mark.parametrize("attribute", FOLD_ATTRIBUTES)
    def test_keys_follow_first_seen_order_across_a_fold(self, census_fold, attribute, method):
        __, base, folded = census_fold
        evidence = {"education": "Bachelors", "hours_per_week": 40, "age": 37}
        for generation in (base, folded):
            posterior = generation.value_distribution(attribute, evidence, method)
            assert list(posterior) == _first_seen(generation.sample, attribute)

    def test_fold_appends_new_classes_to_an_extended_classifier(self, census_fold):
        __, base, folded = census_fold
        before = list(base.value_distribution("age", {}, "all-attributes"))
        after = list(folded.value_distribution("age", {}, "all-attributes"))
        assert len(after) > len(before) and after[: len(before)] == before

    def test_exact_tie_goes_to_the_first_seen_class(self):
        schema = Schema.of("f", "c")
        rows = [("a", "q"), ("a", "p"), ("b", "q"), ("b", "p")] * 3
        knowledge = KnowledgeBase(Relation(schema, rows), database_size=120)
        posterior = knowledge.value_distribution("c", {"f": "a"})
        assert list(posterior) == ["q", "p"]
        assert posterior["q"] == posterior["p"]
        assert knowledge.completions("c", [{"f": "a"}]) == [("q", posterior["q"])]


# ----------------------------------------------------------------------
# What one plan-cache miss costs, counted
# ----------------------------------------------------------------------


def test_one_miss_masks_each_conjunct_once_and_each_likelihood_once(monkeypatch):
    """A miss of a Census ×10 range query scores over a hundred candidates
    with one sample mask per distinct conjunct and one likelihood per
    (feature, value, class); scoring them one at a time repeats both."""
    dataset = scaled_incomplete("census", 10)
    sample, hidden = split_relation(dataset.incomplete, 0.10, random.Random(42))
    knowledge = KnowledgeBase(sample, database_size=len(hidden))
    query = SelectionQuery(Between("hours_per_week", 35, 42))
    base_set = certain_answers(query, hidden)
    sample_store = knowledge.selectivity.sample.columnar()

    masked: dict = {}
    for predicate_type in (Equals, NotEquals, Between, Comparison, OneOf):
        original_mask = predicate_type.mask

        def counted_mask(self, store, _original=original_mask):
            if store is sample_store:
                masked[self] = masked.get(self, 0) + 1
            return _original(self, store)

        monkeypatch.setattr(predicate_type, "mask", counted_mask)

    likelihoods: dict = {}
    original_likelihood = NaiveBayesClassifier.likelihood

    def counted_likelihood(self, feature, value, class_value):
        key = (id(self), feature, value, class_value)
        likelihoods[key] = likelihoods.get(key, 0) + 1
        return original_likelihood(self, feature, value, class_value)

    monkeypatch.setattr(NaiveBayesClassifier, "likelihood", counted_likelihood)

    planner = QueryPlanner(knowledge, cache=PlanCache())
    plan = planner.plan_selection(query, base_set)
    assert not plan.cached
    assert plan.generated > 100
    assert masked and max(masked.values()) == 1
    assert likelihoods and max(likelihoods.values()) == 1
