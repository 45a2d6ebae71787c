"""The mask-based answer extractors against the per-row reference semantics.

Every test runs a query through the executor and compares the answers —
content *and* order — with a first-principles evaluation that calls
:meth:`Predicate.matches` / :meth:`Predicate.possibly_matches` row by row,
including on the adversarial inputs the vectorized kernels special-case:
NaN cells and constants, ±0.0, integers beyond 2^53, mixed-type columns,
all-NULL columns and empty relations.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.errors import SchemaError
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
    certain_or_possible,
    possible_answers,
)
from repro.relational import NULL, Relation, Schema
from repro.relational.values import is_null


def _reference_certain(query, relation):
    return tuple(row for row in relation if query.predicate.matches(row, relation.schema))


def _reference_possible(query, relation, max_nulls=None, *, include_certain=False):
    schema = relation.schema
    positions = schema.indices_of(query.constrained_attributes)
    rows = []
    for row in relation:
        nulls = sum(1 for position in positions if is_null(row[position]))
        if not include_certain and (
            nulls == 0 or (max_nulls is not None and nulls > max_nulls)
        ):
            continue
        if query.predicate.possibly_matches(row, schema):
            rows.append(row)
    return tuple(rows)


def _cars() -> Relation:
    return Relation(
        Schema.of("make", "body_style", "price"),
        [
            ("Honda", "Sedan", 9000),
            ("Honda", None, 12000),
            ("BMW", "Convt", None),
            (None, "Convt", 30000),
            ("Audi", "Sedan", 15000),
            ("BMW", None, None),
            ("Honda", "Convt", 11000),
        ],
    )


QUERIES = [
    SelectionQuery.equals("make", "Honda"),
    SelectionQuery(Equals("make", "Toyota")),  # matches nothing
    SelectionQuery(NotEquals("body_style", "Sedan")),
    SelectionQuery(Between("price", 10000, 20000)),
    SelectionQuery(Comparison("price", ">=", 12000)),
    SelectionQuery(OneOf("make", ("Honda", "Audi"))),
    SelectionQuery(And([Equals("make", "Honda"), Between("price", 10000, 20000)])),
]


class TestAnswerParity:
    @pytest.mark.parametrize("query", QUERIES, ids=str)
    def test_certain_answers_identical(self, query):
        relation = _cars()
        assert certain_answers(query, relation).rows == _reference_certain(
            query, relation
        )

    @pytest.mark.parametrize("query", QUERIES, ids=str)
    @pytest.mark.parametrize("max_nulls", [None, 1, 2])
    def test_possible_answers_identical(self, query, max_nulls):
        relation = _cars()
        answers = possible_answers(query, relation, max_nulls=max_nulls)
        assert answers.rows == _reference_possible(query, relation, max_nulls)

    @pytest.mark.parametrize("query", QUERIES, ids=str)
    def test_certain_or_possible_identical(self, query):
        relation = _cars()
        assert certain_or_possible(query, relation).rows == _reference_possible(
            query, relation, include_certain=True
        )

    @pytest.mark.parametrize("query", QUERIES, ids=str)
    def test_certain_count_matches_certain_answers(self, query):
        relation = _cars()
        assert certain_count(query, relation) == len(_reference_certain(query, relation))
        assert certain_count(query, relation) == len(certain_answers(query, relation))


def _assert_matches_reference(relation, predicates):
    for predicate in predicates:
        query = SelectionQuery(predicate)
        assert certain_answers(query, relation).rows == _reference_certain(
            query, relation
        ), predicate
        for max_nulls in (None, 1):
            assert possible_answers(query, relation, max_nulls).rows == (
                _reference_possible(query, relation, max_nulls)
            ), predicate
        assert certain_or_possible(query, relation).rows == _reference_possible(
            query, relation, include_certain=True
        ), predicate
        assert certain_count(query, relation) == len(
            _reference_certain(query, relation)
        ), predicate


class TestAdversarialValues:
    def test_nan_literal_matches_nothing_on_both_planes(self):
        relation = Relation(
            Schema.of("x"), [(float("nan"),), (1.0,), (None,), (float("nan"),)]
        )
        _assert_matches_reference(
            relation, (Equals("x", float("nan")), NotEquals("x", float("nan")))
        )
        assert len(certain_answers(SelectionQuery(Equals("x", math.nan)), relation)) == 0

    def test_nan_cells_against_ordinary_literals(self):
        relation = Relation(Schema.of("x"), [(float("nan"),), (1.0,), (2.0,)])
        _assert_matches_reference(
            relation,
            (
                Equals("x", 1.0),
                NotEquals("x", 1.0),
                Between("x", 0.0, 5.0),
                Comparison("x", "<", math.nan),
            ),
        )

    def test_signed_zeros_share_one_value(self):
        relation = Relation(Schema.of("x"), [(-0.0,), (0.0,), (0,), (None,), (1e-300,)])
        _assert_matches_reference(
            relation,
            (
                Equals("x", 0.0),
                Equals("x", -0.0),
                NotEquals("x", 0),
                Between("x", -0.0, 0.0),
                Comparison("x", ">", -0.0),
            ),
        )
        assert certain_count(SelectionQuery(Equals("x", -0.0)), relation) == 3

    def test_integers_beyond_float64_precision(self):
        # 2**53 and 2**53 + 1 collide as float64; exact Python comparison
        # must still tell them apart.
        big, bigger = 2**53, 2**53 + 1
        relation = Relation(Schema.of("x"), [(big,), (bigger,), (None,), (float(big),)])
        _assert_matches_reference(
            relation,
            (
                Equals("x", bigger),
                Between("x", big, big),
                Between("x", 0, bigger),
                Comparison("x", ">", big),
                Comparison("x", "<", bigger),
            ),
        )
        assert certain_count(SelectionQuery(Between("x", bigger, bigger)), relation) == 1

    def test_mixed_type_column(self):
        relation = Relation(
            Schema.of("x"), [(1,), ("1",), (1.0,), ("word",), (None,), (True,), (2.5,)]
        )
        _assert_matches_reference(
            relation,
            (
                Equals("x", 1),
                Equals("x", "1"),
                Between("x", 0, 2),
                Between("x", "a", "z"),
                Comparison("x", "<", Fraction(5, 2)),
                Comparison("x", ">=", "1"),
                OneOf("x", (True, "word")),
                Equals("x", [1]),  # unhashable constant: never equal to a cell
            ),
        )

    def test_decimal_cells_are_never_range_matches_against_nan(self):
        # Ordering a Decimal against NaN signals InvalidOperation instead of
        # returning False; such a cell is simply not a certain match, whether
        # a dictionary entry or a single row decides it.
        relation = Relation(
            Schema.of("x", "y"),
            [(Decimal("1.5"), "a"), (math.nan, "b"), (1.5, "a"), (None, "a"), (2, "b")],
        )
        _assert_matches_reference(
            relation,
            (
                Comparison("x", "<", math.nan),
                Between("x", Decimal("1"), Decimal("3")),
                And([Equals("y", "a"), Between("x", Decimal("1"), 2)]),
            ),
        )
        assert certain_count(SelectionQuery(Comparison("x", ">=", math.nan)), relation) == 0

    def test_all_null_column(self):
        relation = Relation(Schema.of("x", "y"), [(None, "a"), (None, "b"), (None, "a")])
        _assert_matches_reference(
            relation,
            (
                Equals("x", 1),
                Between("x", 0, 2**53 + 1),
                And([Equals("y", "a"), Comparison("x", ">", 0)]),
            ),
        )
        query = SelectionQuery(And([Equals("y", "a"), Equals("x", 1)]))
        assert len(possible_answers(query, relation, max_nulls=1)) == 2

    def test_null_heavy_conjunctions_respect_max_nulls(self):
        relation = Relation(
            Schema.of("a", "b", "c"),
            [
                (1, NULL, NULL),
                (NULL, NULL, NULL),
                (1, 2, NULL),
                (NULL, 2, 3),
                (1, 2, 3),
                (2, NULL, 3),
                (1, "2", 3.0),
            ],
        )
        _assert_matches_reference(
            relation,
            (
                And([Equals("a", 1), Equals("b", 2), Between("c", 0, 5)]),
                And([OneOf("a", (1, 2)), NotEquals("b", 2)]),
                And([Comparison("c", ">=", Fraction(3)), Equals("a", 1)]),
            ),
        )

    def test_unhashable_cell_raises_schema_error(self):
        # Cells must be hashable to be dictionary-encoded; the executor
        # refuses the relation instead of guessing.
        relation = Relation(
            Schema.of("x", "y"),
            [([1], "a"), (None, "b"), ([2], "a"), ([1], None)],
        )
        query = SelectionQuery(Equals("y", "a"))
        with pytest.raises(SchemaError, match="'x'"):
            certain_answers(query, relation)
        with pytest.raises(SchemaError, match="'x'"):
            possible_answers(query, relation)

    def test_empty_relation(self):
        relation = Relation(Schema.of("make", "body_style", "price"))
        query = SelectionQuery.equals("make", "Honda")
        assert certain_or_possible(query, relation).rows == ()
        assert certain_answers(query, relation).rows == ()
        assert possible_answers(query, relation, max_nulls=1).rows == ()
        assert certain_count(query, relation) == 0
