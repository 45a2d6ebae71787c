"""Predicate AST semantics, especially around NULL."""
# NULL literals are constructed on purpose: the rejection path is under test.
# qpiadlint: disable-file=null-in-predicate-literal

from decimal import Decimal

import pytest

from repro.errors import QueryError
from repro.query import And, Between, Comparison, Equals, NotEquals, OneOf, conjuncts_of
from repro.relational import NULL, AttributeType, Schema

SCHEMA = Schema.of("make", "model", ("price", AttributeType.NUMERIC))


def row(make="Honda", model="Accord", price=18000):
    return (make, model, price)


class TestEquals:
    def test_matches_on_equal_value(self):
        assert Equals("make", "Honda").matches(row(), SCHEMA)

    def test_rejects_different_value(self):
        assert not Equals("make", "BMW").matches(row(), SCHEMA)

    def test_null_is_not_a_certain_match(self):
        assert not Equals("make", "Honda").matches(row(make=NULL), SCHEMA)

    def test_null_constrained_reports_the_attribute(self):
        assert Equals("make", "Honda").null_constrained(row(make=NULL), SCHEMA) == ("make",)

    def test_binding_null_is_rejected(self):
        with pytest.raises(QueryError, match="NULL"):
            Equals("make", NULL)
        with pytest.raises(QueryError):
            Equals("make", None)

    def test_empty_attribute_rejected(self):
        with pytest.raises(QueryError):
            Equals("", "Honda")

    def test_value_equality_and_hash(self):
        assert Equals("make", "Honda") == Equals("make", "Honda")
        assert hash(Equals("make", "Honda")) == hash(Equals("make", "Honda"))
        assert Equals("make", "Honda") != Equals("make", "BMW")
        assert Equals("make", "Honda") != NotEquals("make", "Honda")


class TestBetween:
    def test_inclusive_bounds(self):
        predicate = Between("price", 18000, 20000)
        assert predicate.matches(row(price=18000), SCHEMA)
        assert predicate.matches(row(price=20000), SCHEMA)
        assert not predicate.matches(row(price=20001), SCHEMA)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(QueryError, match="reversed"):
            Between("price", 10, 5)

    def test_null_is_not_a_match(self):
        assert not Between("price", 0, 10**9).matches(row(price=NULL), SCHEMA)

    def test_uncomparable_value_is_not_a_match(self):
        assert not Between("price", 0, 10).matches(row(price="cheap"), SCHEMA)
        # Decimal ordered against NaN signals InvalidOperation: no match.
        nan = float("nan")
        assert not Between("price", Decimal(0), Decimal(10)).matches(row(price=nan), SCHEMA)
        assert not Comparison("price", "<", nan).matches(row(price=Decimal(1)), SCHEMA)

    def test_incomparable_bounds_rejected(self):
        with pytest.raises(QueryError, match="not comparable"):
            Between("price", 5, "abc")
        with pytest.raises(QueryError, match="not comparable"):
            Between("price", Decimal(1), float("nan"))


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,expected",
        [("<", 20000, True), ("<=", 18000, True), (">", 18000, False), (">=", 18000, True)],
    )
    def test_operators(self, op, value, expected):
        assert Comparison("price", op, value).matches(row(), SCHEMA) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("price", "=", 5)

    def test_null_never_matches(self):
        assert not Comparison("price", "<", 10**9).matches(row(price=NULL), SCHEMA)


class TestOneOf:
    def test_membership(self):
        predicate = OneOf("make", ["Honda", "BMW"])
        assert predicate.matches(row(), SCHEMA)
        assert not predicate.matches(row(make="Audi"), SCHEMA)

    def test_empty_set_rejected(self):
        with pytest.raises(QueryError):
            OneOf("make", [])

    def test_null_in_set_rejected(self):
        with pytest.raises(QueryError):
            OneOf("make", ["Honda", NULL])


class TestNotEquals:
    def test_null_never_certainly_differs(self):
        assert not NotEquals("make", "BMW").matches(row(make=NULL), SCHEMA)

    def test_present_value(self):
        assert NotEquals("make", "BMW").matches(row(), SCHEMA)
        assert not NotEquals("make", "Honda").matches(row(), SCHEMA)


class TestAnd:
    def test_flattens_nested_conjunctions(self):
        inner = And([Equals("make", "Honda"), Equals("model", "Accord")])
        outer = And([inner, Between("price", 0, 10**6)])
        assert len(outer.parts) == 3

    def test_attributes_deduplicated_in_order(self):
        predicate = And(
            [Equals("make", "Honda"), Between("price", 0, 1), Equals("make", "Honda")]
        )
        assert predicate.attributes() == ("make", "price")

    def test_matches_requires_all(self):
        predicate = Equals("make", "Honda") & Equals("model", "Accord")
        assert predicate.matches(row(), SCHEMA)
        assert not predicate.matches(row(model="Civic"), SCHEMA)

    def test_empty_conjunction_rejected(self):
        with pytest.raises(QueryError):
            And([])

    def test_conjuncts_of(self):
        single = Equals("make", "Honda")
        assert conjuncts_of(single) == (single,)
        other = Equals("model", "Accord")
        assert len(conjuncts_of(single & other)) == 2

    def test_duplicate_conjuncts_collapse(self):
        single = Equals("make", "Honda")
        assert len(conjuncts_of(single & single)) == 1


class TestPossiblyMatches:
    def test_certain_match_possibly_matches(self):
        predicate = Equals("make", "Honda") & Equals("model", "Accord")
        assert predicate.possibly_matches(row(), SCHEMA)

    def test_null_blocked_conjunct_is_possible(self):
        predicate = Equals("make", "Honda") & Equals("model", "Accord")
        assert predicate.possibly_matches(row(model=NULL), SCHEMA)

    def test_definite_mismatch_is_not_possible(self):
        predicate = Equals("make", "Honda") & Equals("model", "Accord")
        assert not predicate.possibly_matches(row(make="BMW", model=NULL), SCHEMA)

    def test_all_nulls_on_constrained_attrs_possible(self):
        predicate = Equals("make", "Honda") & Equals("model", "Accord")
        assert predicate.possibly_matches(row(make=NULL, model=NULL), SCHEMA)
