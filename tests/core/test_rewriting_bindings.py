"""The one-pass rewriting bindings against the per-row loop they replaced.

``rewriting_bindings`` deduplicates raw determining-value combinations in
C before it computes any mining label.  That is only correct if it keeps
exactly what the old per-row loop kept: the first raw combination of each
mining-label class, in first-seen order, NULL combinations skipped.  The
loop is kept here as the reference, and the two are compared by ``repr``
so that ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` are told apart.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import pytest

from repro.core.rewriting import rewriting_bindings
from repro.mining.afd import Afd
from repro.mining.discretization import Discretizer
from repro.query import Equals, SelectionQuery
from repro.relational import NULL, AttributeType, Relation, Schema
from repro.relational.values import is_null


def _reference(base_set, determining, knowledge):
    """The per-row loop rewriting ran before the one-pass dedup."""
    indices = base_set.schema.indices_of(determining)
    seen_labels = set()
    for row in base_set:
        combo = tuple(row[i] for i in indices)
        if any(is_null(value) for value in combo):
            continue
        labels = tuple(
            knowledge.mining_label(name, value)
            for name, value in zip(determining, combo)
        )
        if labels in seen_labels:
            continue
        seen_labels.add(labels)
        yield combo, dict(zip(determining, combo))


def _assert_matches_reference(query, base_set, knowledge):
    bindings = rewriting_bindings(query, base_set, knowledge)
    for binding in bindings:
        expected = list(_reference(base_set, binding.determining, knowledge))
        actual = [
            (combo, dict(zip(binding.determining, combo))) for combo in binding.combos
        ]
        assert repr(actual) == repr(expected), binding.attribute
    return bindings


class _PinnedKnowledge:
    """The two knowledge reads the bindings pass makes: a best AFD pinned
    per attribute, and mining labels from fixed bucket edges."""

    def __init__(self, determining, bins):
        self._afds = {
            target: Afd(names, target, 1.0) for target, names in determining.items()
        }
        self._discretizer = Discretizer.from_bins(bins)

    def best_afd(self, attribute):
        return self._afds.get(attribute)

    def mining_label(self, attribute, value):
        return self._discretizer.bucket(attribute, value)


SCHEMA = Schema.of(
    "cat",
    ("num", AttributeType.NUMERIC),
    "other",
    "t1",
    "t2",
)
#: ``num`` is discretized at 0, 20 and 40; ``cat`` and ``other`` are not.
BINS = {"num": ((0.0, 20.0, 40.0), -10.0, 60.0)}
KNOWLEDGE = _PinnedKnowledge({"t1": ("cat", "num"), "t2": ("num", "other")}, BINS)
QUERY = SelectionQuery.conjunction([Equals("t1", "x"), Equals("t2", "y")])

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


def _relation(rows):
    return Relation(SCHEMA, rows)


def _random_rows(rng, count):
    return [
        (
            rng.choice(CATEGORICAL),
            rng.choice(NUMERIC),
            rng.choice(OTHER),
            rng.choice(("x", NULL)),
            rng.choice(("y", NULL)),
        )
        for _ in range(count)
    ]


class TestMatchesPerRowLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_mixed_value_base_sets(self, seed):
        rng = random.Random(seed)
        base_set = _relation(_random_rows(rng, rng.randint(1, 80)))
        bindings = _assert_matches_reference(QUERY, base_set, KNOWLEDGE)
        assert [b.attribute for b in bindings] == ["t1", "t2"]

    def test_first_seen_of_equal_values_is_kept(self):
        rows = [
            ("a", -0.0, True, "x", "y"),
            ("a", 0.0, 1, "x", "y"),
            (True, 5, 1.0, "x", "y"),
            (1.0, 5.0, True, "x", "y"),
            (Decimal("1"), Decimal("5"), 1, "x", "y"),
        ]
        bindings = _assert_matches_reference(QUERY, _relation(rows), KNOWLEDGE)
        by_attribute = {b.attribute: b.combos for b in bindings}
        assert repr(by_attribute["t1"]) == "(('a', -0.0), (True, 5))"

    def test_discretized_values_share_one_class(self):
        rows = [
            ("a", 7.5, "p", "x", "y"),
            ("a", 5, "p", "x", "y"),
            ("a", Decimal("19.5"), "q", "x", "y"),
            ("a", 25, "p", "x", "y"),
        ]
        bindings = _assert_matches_reference(QUERY, _relation(rows), KNOWLEDGE)
        assert repr(bindings[0].combos) == "(('a', 7.5), ('a', 25))"

    def test_nan_values(self):
        rows = [
            (SHARED_NAN, SHARED_NAN, "p", "x", "y"),
            (SHARED_NAN, float("nan"), "p", "x", "y"),
            (float("nan"), 1e9, "p", "x", "y"),
            (float("nan"), 30, "p", "x", "y"),
        ]
        _assert_matches_reference(QUERY, _relation(rows), KNOWLEDGE)

    def test_null_combinations_are_skipped(self):
        rows = [
            (NULL, 5, "p", "x", "y"),
            ("a", NULL, "p", "x", "y"),
            ("a", 5, NULL, "x", "y"),
            ("b", 25, "q", "x", "y"),
        ]
        bindings = _assert_matches_reference(QUERY, _relation(rows), KNOWLEDGE)
        assert repr([b.combos for b in bindings]) == (
            "[(('a', 5), ('b', 25)), ((5, 'p'), (25, 'q'))]"
        )

    def test_empty_base_set(self):
        bindings = _assert_matches_reference(QUERY, _relation([]), KNOWLEDGE)
        assert [b.combos for b in bindings] == [(), ()]

    def test_all_null_determining_column(self):
        rows = [("a", NULL, "p", "x", "y"), ("b", NULL, "q", "x", "y")]
        bindings = _assert_matches_reference(QUERY, _relation(rows), KNOWLEDGE)
        assert [b.combos for b in bindings] == [(), ()]

    def test_single_determining_column(self):
        knowledge = _PinnedKnowledge({"t1": ("num",)}, BINS)
        rows = [("a", value, "p", "x", "y") for value in NUMERIC]
        bindings = _assert_matches_reference(
            SelectionQuery.equals("t1", "x"), _relation(rows), knowledge
        )
        assert all(len(combo) == 1 for combo in bindings[0].combos)

    def test_missing_determining_column_binds_nothing(self):
        knowledge = _PinnedKnowledge({"t1": ("cat", "absent")}, BINS)
        bindings = rewriting_bindings(
            SelectionQuery.equals("t1", "x"),
            _relation([("a", 5, "p", "x", "y")]),
            knowledge,
        )
        assert [tuple(b) for b in bindings] == [("t1", ("absent", "cat"), ())]

    def test_unrewritable_attribute_gets_no_binding(self):
        knowledge = _PinnedKnowledge({"t1": ("cat",)}, BINS)
        bindings = rewriting_bindings(QUERY, _relation([]), knowledge)
        assert [b.attribute for b in bindings] == ["t1"]


class TestMinedKnowledge:
    """The same comparison on real base sets and a mined knowledge base,
    whose ``age`` and ``hours_per_week`` are discretized."""

    @pytest.mark.parametrize(
        "query",
        [
            SelectionQuery.equals("relationship", "Own-child"),
            SelectionQuery.equals("occupation", "Sales"),
            SelectionQuery.conjunction(
                [Equals("education", "Bachelors"), Equals("sex", "Female")]
            ),
        ],
        ids=str,
    )
    def test_census_base_sets(self, census_env, query):
        base_set = census_env.web_source().execute(query)
        rows = list(base_set)
        random.Random(3).shuffle(rows)
        for candidate in (base_set, Relation(base_set.schema, rows)):
            bindings = _assert_matches_reference(
                query, candidate, census_env.knowledge
            )
            assert any(binding.combos for binding in bindings)
