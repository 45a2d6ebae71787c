"""The candidate path against the construction it replaced.

A plan-cache miss scores every candidate rewritten query from its
binding (``rewritten_from_bindings``) and builds a candidate's query only
when something reads it; ``Ranker.order`` attaches recall and F-measure to
the candidates it keeps and renders a query's ``repr`` only to break a tie
on F-measure and expected throughput.  The reference kept here is the
construction that built every candidate in full:

* ``query.replacing`` plus the leftover rewrite (a kept conjunct on a
  determining attribute that differs from its replacement is dropped and
  the replacement moved to the front), deduplicated on whole queries and
  scored with ``target_probabilities`` and ``estimate_all``;
* ``with_ordering_scores`` on every candidate, then one sort on
  ``(-F, -throughput, repr)`` that renders every candidate's ``repr``.

Every planning mode runs once with the real stages and once with the
reference patched in, and the two are compared by ``repr``, by ``==`` and
by ``float.hex``.  The other tests pin the tie-break across the K-th
place, count the queries one miss builds, and check that candidates a
plan cache shares are never changed by their readers.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

from repro.core import JoinConfig, JoinProcessor
from repro.core.rewriting import (
    RewrittenQuery,
    _determining_predicate,
    rewriting_bindings,
    rewritten_from_bindings,
    target_probabilities,
)
from repro.datasets.scale import scaled_incomplete
from repro.evaluation import join_workload
from repro.mining import Afd, KnowledgeBase
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, Ranker
from repro.planner import generators as generators_module
from repro.query import Between, Comparison, Equals, OneOf, SelectionQuery
from repro.query import query as query_module
from repro.sources import AutonomousSource, SourceCapabilities
from repro.sources.sampler import split_relation

ALPHAS = (0.0, 0.5, 2.0)
KS = (0, 1, 10, None)
MODES = ("selection", "correlated", "aggregate-argmax", "aggregate-fractional", "candidates")

QUERIES = {
    "cars": (
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.equals("make", "BMW"),
        SelectionQuery(Between("price", 8000, 16000)),
        # Leftovers: the range on price (discretized), the set of models and
        # the two ranges that determine each other.
        SelectionQuery.conjunction(
            [Equals("model", "Accord"), Between("price", 12000, 22000)]
        ),
        SelectionQuery.conjunction(
            [Equals("body_style", "Sedan"), OneOf("model", ("Accord", "Civic", "Camry"))]
        ),
        SelectionQuery.conjunction(
            [Comparison("year", ">=", 2004), Comparison("mileage", "<", 50000)]
        ),
    ),
    "census": (
        SelectionQuery.equals("workclass", "Self-emp"),
        SelectionQuery(Between("hours_per_week", 35, 42)),
        SelectionQuery.conjunction([Equals("education", "Bachelors"), Equals("sex", "Female")]),
        # Leftovers: a range on age, a determining attribute of both targets,
        # and two leftovers in one rewriting (age and relationship).
        SelectionQuery.conjunction([Equals("occupation", "Sales"), Between("age", 30, 40)]),
        SelectionQuery.conjunction(
            [
                Equals("workclass", "Private"),
                Comparison("age", ">", 30),
                OneOf("relationship", ("Husband", "Wife")),
            ]
        ),
    ),
}


@pytest.fixture(scope="module")
def census10():
    """Census ×10 as the census-refresh benchmark splits it: knowledge
    mined from a 10% sample, the rest behind a web form."""
    dataset = scaled_incomplete("census", 10)
    sample, hidden = split_relation(dataset.incomplete, 0.10, random.Random(42))
    knowledge = KnowledgeBase(sample, database_size=len(hidden))
    return knowledge, AutonomousSource("census", hidden, SourceCapabilities.web_form())


@pytest.fixture(params=sorted(QUERIES))
def setting(request):
    if request.param == "cars":
        env = request.getfixturevalue("cars_env")
        return request.param, env.knowledge, env.web_source()
    knowledge, source = request.getfixturevalue("census10")
    return request.param, knowledge, source


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------

def _reference_candidates(query, bindings, knowledge, method=None, leftovers=None):
    """Every candidate built in full, deduplicated on whole queries; each
    leftover rewrite is counted in *leftovers* when given."""
    if not bindings:
        return rewritten_from_bindings(query, bindings, knowledge, method)  # raises
    candidates = []
    seen = set()
    for attribute, determining, combos in bindings:
        queries, evidences = [], []
        for combo in combos:
            replacements = [
                _determining_predicate(knowledge, name, value)
                for name, value in zip(determining, combo)
            ]
            rewritten = query.replacing(attribute, replacements)
            for name, replacement in zip(determining, replacements):
                extra = [c for c in rewritten.conjuncts_on(name) if c != replacement]
                if extra:
                    if leftovers is not None:
                        leftovers[query] += 1
                    rewritten = rewritten.replacing(name, [replacement])
            if (attribute, rewritten) in seen:
                continue
            seen.add((attribute, rewritten))
            queries.append(rewritten)
            evidences.append(dict(zip(determining, combo)))
        if not queries:
            continue
        target = query.conjuncts_on(attribute)
        posteriors = knowledge.value_distributions(attribute, evidences, method)
        precisions = target_probabilities(knowledge, attribute, target, evidences, method)
        selectivities = knowledge.selectivity.estimate_all(queries)
        candidates.extend(
            RewrittenQuery(
                query=rewritten,
                target_attribute=attribute,
                evidence=evidence,
                estimated_precision=precision,
                estimated_selectivity=selectivity,
                afd=knowledge.best_afd(attribute),
                posterior=posterior,
            )
            for rewritten, evidence, precision, selectivity, posterior in zip(
                queries, evidences, precisions, selectivities, posteriors
            )
        )
    return candidates


def _reference_order(ranker, rewritten):
    """Copy every candidate with its scores, sort them all, keep K."""
    total = sum(candidate.expected_throughput for candidate in rewritten)
    scored = []
    for candidate in rewritten:
        recall = candidate.expected_throughput / total if total > 0 else 0.0
        scored.append(
            candidate.with_ordering_scores(
                recall, ranker.f_measure(candidate.estimated_precision, recall)
            )
        )
    ranked = sorted(
        scored, key=lambda q: (-q.f_measure, -q.expected_throughput, repr(q.query))
    )
    selected = ranked if ranker.k is None else ranked[: ranker.k]
    return sorted(
        selected,
        key=lambda q: (-q.estimated_precision, -q.expected_throughput, repr(q.query)),
    )


def _plan(mode, knowledge, source, query, alpha, k):
    rule = "fractional" if mode == "aggregate-fractional" else "argmax"
    planner = QueryPlanner(knowledge, PlannerConfig(alpha=alpha, k=k, inclusion_rule=rule))
    base_set = source.execute(query)
    if mode == "selection":
        return planner.plan_selection(query, base_set, source=source)
    if mode == "correlated":
        attribute = query.constrained_attributes[0]
        return planner.plan_correlated(query, base_set, attribute, source)
    if mode.startswith("aggregate"):
        return planner.plan_aggregate(query, base_set)
    return planner.rewrite_candidates(query, base_set)


def _rendered_candidates(candidates):
    return [
        (
            repr(candidate),
            repr(candidate.query),
            repr(candidate.evidence),
            repr(candidate.afd),
            candidate.target_attribute,
            candidate.estimated_precision.hex(),
            candidate.estimated_selectivity.hex(),
            candidate.estimated_recall.hex(),
            candidate.f_measure.hex(),
            None
            if candidate.posterior is None
            else [(repr(value), mass.hex()) for value, mass in candidate.posterior.items()],
        )
        for candidate in candidates
    ]


def _rendered(plan):
    if isinstance(plan, tuple):
        return _rendered_candidates(plan)
    steps = [
        (
            repr(step),
            repr(step.query),
            step.estimated_precision.hex(),
            step.estimated_recall.hex(),
        )
        for step in plan.steps
    ]
    weights = [weight.hex() for weight in getattr(plan, "weights", ())]
    return repr(plan), steps, weights


def _assert_same(new, reference):
    assert _rendered(new) == _rendered(reference)
    if isinstance(new, tuple):
        assert list(new) == list(reference)
        assert [c.query for c in new] == [c.query for c in reference]
    else:
        assert new == reference
        assert [s.query for s in new.steps] == [s.query for s in reference.steps]


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_alpha_and_k(self, setting, mode, monkeypatch):
        name, knowledge, source = setting
        cases = [(q, a, k) for q in QUERIES[name] for a in ALPHAS for k in KS]
        new = [_plan(mode, knowledge, source, q, a, k) for q, a, k in cases]
        with monkeypatch.context() as patched:
            patched.setattr(generators_module, "rewritten_from_bindings", _reference_candidates)
            patched.setattr(Ranker, "order", _reference_order)
            reference = [_plan(mode, knowledge, source, q, a, k) for q, a, k in cases]
        for got, want in zip(new, reference):
            _assert_same(got, want)
        assert any(plan if isinstance(plan, tuple) else plan.steps for plan in new)

    def test_leftover_queries_exercise_the_leftover_rewrite(self, setting):
        name, knowledge, source = setting
        leftovers = Counter()
        for query in QUERIES[name][-2:]:
            bindings = rewriting_bindings(query, source.execute(query), knowledge)
            new = rewritten_from_bindings(query, bindings, knowledge)
            reference = _reference_candidates(query, bindings, knowledge, leftovers=leftovers)
            assert _rendered_candidates(new) == _rendered_candidates(reference)
            assert leftovers[query] > 0, query

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", KS)
    def test_order_scores_and_keeps_what_the_full_sort_keeps(self, setting, alpha, k):
        name, knowledge, source = setting
        ranker = Ranker(alpha, k)
        for query in QUERIES[name]:
            bindings = rewriting_bindings(query, source.execute(query), knowledge)
            new = ranker.order(rewritten_from_bindings(query, bindings, knowledge))
            reference = _reference_order(
                ranker, _reference_candidates(query, bindings, knowledge)
            )
            assert _rendered_candidates(new) == _rendered_candidates(reference)
            assert new == reference


# ----------------------------------------------------------------------
# Ties across the K-th place
# ----------------------------------------------------------------------


def _rq(model, precision, selectivity):
    return RewrittenQuery(
        query=SelectionQuery.equals("model", model),
        target_attribute="body_style",
        evidence={"model": model},
        estimated_precision=precision,
        estimated_selectivity=selectivity,
        afd=Afd(("model",), "body_style", 0.9),
    )


class TestTies:
    #: One clear winner, four candidates tied on F and throughput (listed
    #: out of repr order), one clear loser.
    CANDIDATES = (
        _rq("Z4", 0.9, 10.0),
        _rq("M3", 0.5, 10.0),
        _rq("M1", 0.5, 10.0),
        _rq("M4", 0.5, 10.0),
        _rq("M2", 0.5, 10.0),
        _rq("A8", 0.1, 10.0),
    )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_repr_decides_which_tied_candidates_survive(self, alpha):
        ordered = Ranker(alpha, k=3).order(list(self.CANDIDATES))
        assert [c.evidence["model"] for c in ordered] == ["Z4", "M1", "M2"]
        assert ordered == _reference_order(Ranker(alpha, k=3), list(self.CANDIDATES))

    @pytest.mark.parametrize("k", range(len(CANDIDATES) + 1))
    def test_every_cut_matches_the_full_sort(self, k):
        ranker = Ranker(0.5, k)
        for shift in range(len(self.CANDIDATES)):
            candidates = list(self.CANDIDATES[shift:] + self.CANDIDATES[:shift])
            assert _rendered_candidates(ranker.order(candidates)) == _rendered_candidates(
                _reference_order(ranker, candidates)
            )

    def test_keys_are_rendered_only_for_ties_within_reach(self):
        items = [
            {"f": 0.9, "throughput": 1.0, "key": "w"},
            {"f": 0.5, "throughput": 1.0, "key": "c"},
            {"f": 0.5, "throughput": 1.0, "key": "a"},
            {"f": 0.5, "throughput": 2.0, "key": "x"},
            {"f": 0.5, "throughput": 1.0, "key": "b"},
            {"f": 0.2, "throughput": 1.0, "key": "y"},
            {"f": 0.2, "throughput": 1.0, "key": "z"},
        ]
        rendered = []

        def key(item):
            rendered.append(item["key"])
            return item["key"]

        selected = Ranker(k=4).select_top(
            items, f=lambda i: i["f"], throughput=lambda i: i["throughput"], key=key
        )
        assert [item["key"] for item in selected] == ["w", "x", "a", "b"]
        # The tied group straddling the 4th place is ordered in full; the
        # untied and the out-of-reach candidates are never rendered.
        assert sorted(rendered) == ["a", "b", "c"]

    def test_score_leaves_its_input_unchanged(self):
        candidates = list(self.CANDIDATES)
        before = _rendered_candidates(candidates)
        scored = Ranker(0.5).score(candidates)
        assert _rendered_candidates(candidates) == before
        assert all(c.estimated_recall == c.f_measure == 0.0 for c in candidates)
        assert all(c.f_measure > 0.0 for c in scored)


# ----------------------------------------------------------------------
# What one miss builds
# ----------------------------------------------------------------------


def test_a_miss_builds_only_the_queries_it_keeps_or_tie_breaks(census10, monkeypatch):
    """σ[workclass='Private'] at K = 10 has hundreds of candidates; the miss
    builds a query for the ten the ranker keeps and for any candidate tied
    with the tenth, not for every candidate."""
    knowledge, source = census10
    query = SelectionQuery.equals("workclass", "Private")
    base_set = source.execute(query)
    config = PlannerConfig(k=10)

    candidates = QueryPlanner(knowledge, config).rewrite_candidates(query, base_set)
    scored = Ranker(config.alpha).score(candidates)
    ranked = sorted(scored, key=lambda q: (-q.f_measure, -q.expected_throughput))
    tenth = (ranked[9].f_measure, ranked[9].expected_throughput)
    tied_beyond = sum(
        1 for q in ranked[10:] if (q.f_measure, q.expected_throughput) == tenth
    )

    built = Counter()
    original = query_module.SelectionQuery.__init__

    def counting(self, *args, **kwargs):
        built["queries"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(query_module.SelectionQuery, "__init__", counting)
    plan = QueryPlanner(knowledge, config, cache=PlanCache()).plan_selection(
        query, base_set, source=source
    )
    assert not plan.cached
    assert plan.generated == len(candidates) > 200
    assert 0 < built["queries"] <= config.k + tied_beyond


# ----------------------------------------------------------------------
# Candidates a plan cache shares
# ----------------------------------------------------------------------


def test_shared_candidates_are_unchanged_by_their_readers(cars_env, complaints_env):
    """A join reads the candidates the cache holds for its left side first,
    building their queries; ranking them and planning a selection through
    the same cache changes none of them either."""
    cache = PlanCache()
    config = JoinConfig(max_concurrency=1)
    processor = JoinProcessor(
        cars_env.web_source(),
        complaints_env.web_source(),
        cars_env.knowledge,
        complaints_env.knowledge,
        config,
        plan_cache=cache,
    )
    join = join_workload(
        cars_env, complaints_env, "model", "model", "general_component", 1, seed=7
    )[0]
    source = cars_env.web_source()
    base_set = source.execute(join.left)
    # The configuration the join plans each side's candidates with.
    candidate_config = PlannerConfig(
        alpha=config.alpha, k=None, classifier_method=config.classifier_method
    )
    expected = _rendered_candidates(
        QueryPlanner(cars_env.knowledge, candidate_config).rewrite_candidates(
            join.left, base_set
        )
    )
    planner = QueryPlanner(cars_env.knowledge, candidate_config, cache=cache)
    shared = planner.rewrite_candidates(join.left, base_set)  # left unread
    assert shared and cache.misses == 1

    processor.query(join)  # scores pairs over the shared candidates
    assert cache.hits >= 1
    Ranker(0.5, k=3).order(shared)
    Ranker(2.0).score(shared)
    selection = QueryPlanner(cars_env.knowledge, PlannerConfig(k=3), cache=cache)
    selection.plan_selection(join.left, base_set, source=source)

    served = planner.rewrite_candidates(join.left, base_set)
    assert served is shared
    assert _rendered_candidates(served) == expected


def test_threads_racing_to_build_shared_queries_agree(census10):
    """Eight threads read the unbuilt queries of one candidate tuple at once,
    switching every microsecond: each sees the queries a fresh planner
    builds, and every later read returns one stored query."""
    knowledge, source = census10
    query = SelectionQuery.equals("workclass", "Self-emp")
    base_set = source.execute(query)
    expected = [
        repr(candidate.query)
        for candidate in QueryPlanner(knowledge).rewrite_candidates(query, base_set)
    ]
    shared = QueryPlanner(knowledge).rewrite_candidates(query, base_set)
    readers = 8
    barrier = threading.Barrier(readers, timeout=10)
    seen: list = [None] * readers

    def read(slot):
        barrier.wait()
        seen[slot] = [repr(candidate.query) for candidate in shared]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * readers
    assert all(candidate.query is candidate.query for candidate in shared)
