"""The plan cache keys on a base set's rewriting bindings, exactly.

A plan is a pure function of mode, planner config, knowledge fingerprint,
query, rewriting bindings and source token.  Keying on the bindings'
digest instead of every base-set row can therefore only turn a miss into
a hit, and that hit must serve the plan a fresh, uncached planner builds.
Checked on seeded random base sets drawn from the Cars and Census hidden
relations: subsets, permutations, and copies whose non-determining columns
are rewritten.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.rewriting import rewriting_bindings
from repro.planner import PlanCache, PlannerConfig, QueryPlanner
from repro.query import Between, Equals, SelectionQuery
from repro.relational import Relation
from repro.relational.values import is_null

MODES = ("selection", "correlated", "aggregate", "candidates")

QUERIES = {
    "cars": (
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.conjunction(
            [Equals("model", "Accord"), Between("price", 12000, 22000)]
        ),
    ),
    "census": (
        SelectionQuery.equals("relationship", "Own-child"),
        SelectionQuery.conjunction(
            [Equals("education", "Bachelors"), Equals("sex", "Female")]
        ),
    ),
}


@pytest.fixture(params=sorted(QUERIES))
def env(request):
    environment = request.getfixturevalue(f"{request.param}_env")
    return request.param, environment


def _plan(planner, mode, query, base_set, source):
    if mode == "selection":
        return planner.plan_selection(query, base_set, source=source)
    if mode == "correlated":
        return planner.plan_correlated(
            query, base_set, query.constrained_attributes[0], source
        )
    if mode == "aggregate":
        return planner.plan_aggregate(query, base_set)
    return planner.rewrite_candidates(query, base_set)


def _exact(plan):
    """Everything in a plan but its cache flag, by ``repr`` so that a bound
    ``1`` and ``1.0`` differ."""
    if isinstance(plan, tuple):  # rewrite_candidates
        return repr([vars(candidate) for candidate in plan])
    return repr(replace(plan, cached=False))


def _determining_columns(knowledge, query):
    names = set()
    for attribute in query.constrained_attributes:
        afd = knowledge.best_afd(attribute)
        if afd is not None:
            names.update(afd.determining)
    return names


def _rewrite_outside(base_set, keep, hidden, rng):
    """A copy of *base_set* whose columns outside *keep* hold values drawn
    from other rows of *hidden*."""
    schema = base_set.schema
    kept = {schema.index_of(name) for name in keep}
    pool = list(hidden)
    return Relation(
        schema,
        [
            tuple(
                value if index in kept else rng.choice(pool)[index]
                for index, value in enumerate(row)
            )
            for row in base_set
        ],
    )


def _variants(base_set, keep, hidden, rng):
    schema = base_set.schema
    rows = list(base_set)
    yield base_set
    for __ in range(2):
        yield Relation(schema, rng.sample(rows, rng.randint(1, len(rows))))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    yield Relation(schema, shuffled)
    yield _rewrite_outside(base_set, keep, hidden, rng)


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_base_sets(self, env, mode):
        name, environment = env
        knowledge = environment.knowledge
        cache = PlanCache()
        cached = QueryPlanner(knowledge, PlannerConfig(k=10), cache=cache)
        plain = QueryPlanner(knowledge, PlannerConfig(k=10))
        source = environment.web_source()
        rng = random.Random(f"{name}:{mode}")
        for query in QUERIES[name]:
            base_set = source.execute(query)
            keep = _determining_columns(knowledge, query)
            for variant in _variants(base_set, keep, environment.test, rng):
                got = _plan(cached, mode, query, variant, source)
                want = _plan(plain, mode, query, variant, source)
                assert _exact(got) == _exact(want)
        # Every rewritten copy shares its original's bindings.
        assert cache.hits >= len(QUERIES[name])


class TestKey:
    @pytest.mark.parametrize("mode", MODES)
    def test_change_outside_determining_columns_hits(self, env, mode):
        name, environment = env
        knowledge = environment.knowledge
        query = QUERIES[name][0]
        source = environment.web_source()
        base_set = source.execute(query)
        copy = _rewrite_outside(
            base_set,
            _determining_columns(knowledge, query),
            environment.test,
            random.Random(name),
        )
        assert list(copy) != list(base_set)
        cache = PlanCache()
        planner = QueryPlanner(knowledge, PlannerConfig(k=10), cache=cache)
        _plan(planner, mode, query, base_set, source)
        served = _plan(planner, mode, query, copy, source)
        assert (cache.hits, cache.misses) == (1, 1)
        if mode != "candidates":
            assert served.cached
        fresh = _plan(QueryPlanner(knowledge, PlannerConfig(k=10)), mode, query, copy, source)
        assert _exact(served) == _exact(fresh)

    def test_reorder_changing_first_value_of_a_bucket_class_misses(self, census_env):
        knowledge = census_env.knowledge
        query = SelectionQuery.equals("occupation", "Sales")
        source = census_env.web_source()
        base_set = source.execute(query)
        determining = knowledge.best_afd("occupation").determining
        assert any(knowledge.is_discretized(name) for name in determining)
        indices = base_set.schema.indices_of(determining)
        rows = list(base_set)

        # The first row whose raw combination differs from the first one
        # seen in its mining-label class.
        first_seen = {}
        for position, row in enumerate(rows):
            combo = tuple(row[i] for i in indices)
            if any(is_null(value) for value in combo):
                continue
            labels = tuple(
                knowledge.mining_label(name, value)
                for name, value in zip(determining, combo)
            )
            if first_seen.setdefault(labels, combo) != combo:
                break
        else:
            pytest.fail("no bucket class holds two raw combinations")
        reordered = Relation(
            base_set.schema, [rows[position], *rows[:position], *rows[position + 1:]]
        )
        assert rewriting_bindings(query, reordered, knowledge) != rewriting_bindings(
            query, base_set, knowledge
        )

        cache = PlanCache()
        planner = QueryPlanner(knowledge, PlannerConfig(k=10), cache=cache)
        planner.plan_selection(query, base_set, source=source)
        plan = planner.plan_selection(query, reordered, source=source)
        assert not plan.cached
        assert (cache.hits, cache.misses) == (0, 2)
        fresh = QueryPlanner(knowledge, PlannerConfig(k=10)).plan_selection(
            query, reordered, source=source
        )
        assert _exact(plan) == _exact(fresh)
