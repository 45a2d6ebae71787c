"""SQL-style parsing of conjunctive selections."""

import pytest

from repro.errors import QueryError
from repro.query import Between, Comparison, Equals, NotEquals, OneOf
from repro.query.sqlparse import parse_selection


class TestBasicConditions:
    def test_quoted_equality(self):
        query = parse_selection("make = 'Honda'")
        assert query.conjuncts == (Equals("make", "Honda"),)

    def test_double_quotes_and_escapes(self):
        query = parse_selection('model = "Grand Cherokee"')
        assert query.equality_value("model") == "Grand Cherokee"
        query = parse_selection(r"model = 'O\'Brien'")
        assert query.equality_value("model") == "O'Brien"

    def test_bareword_value(self):
        query = parse_selection("make = Honda")
        assert query.equality_value("make") == "Honda"

    def test_numeric_values(self):
        assert parse_selection("price = 20000").equality_value("price") == 20000
        assert parse_selection("price = 19999.5").equality_value("price") == 19999.5
        assert parse_selection("delta = -3").equality_value("delta") == -3

    def test_between(self):
        query = parse_selection("price BETWEEN 15000 AND 20000")
        assert query.conjuncts == (Between("price", 15000, 20000),)

    def test_in_list(self):
        query = parse_selection("body_style IN ('Convt', 'Coupe')")
        assert query.conjuncts == (OneOf("body_style", ["Convt", "Coupe"]),)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_comparisons(self, op):
        query = parse_selection(f"year {op} 2003")
        assert query.conjuncts == (Comparison("year", op, 2003),)

    @pytest.mark.parametrize("op", ["!=", "<>"])
    def test_not_equals(self, op):
        query = parse_selection(f"make {op} 'BMW'")
        assert query.conjuncts == (NotEquals("make", "BMW"),)


class TestConjunctionsAndPrefix:
    def test_and_chain(self):
        query = parse_selection(
            "make = 'Honda' AND price BETWEEN 15000 AND 20000 AND year >= 2003"
        )
        assert len(query.conjuncts) == 3
        assert set(query.constrained_attributes) == {"make", "price", "year"}

    def test_select_star_from_prefix(self):
        query = parse_selection("SELECT * FROM cars WHERE model = 'Accord'")
        assert query.relation == "cars"
        assert query.equality_value("model") == "Accord"

    def test_where_is_optional(self):
        assert parse_selection("WHERE make = 'Honda'") == parse_selection(
            "make = 'Honda'"
        )

    def test_keywords_case_insensitive(self):
        query = parse_selection("select * from cars where price between 1 and 2")
        assert query.relation == "cars"


class TestRejections:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "make = 'Honda' OR make = 'BMW'",
            "make = 'Honda' make = 'BMW'",
            "make ~ 'Honda'",
            "price BETWEEN 1",
            "body IN ('a' 'b')",
            "SELECT * FROM WHERE make = 'Honda'",
            "= 'Honda'",
        ],
    )
    def test_unsupported_or_malformed(self, text):
        with pytest.raises(QueryError):
            parse_selection(text)

    def test_between_with_incomparable_bounds_is_a_query_error(self):
        with pytest.raises(QueryError, match="not comparable"):
            parse_selection("price between 5 and abc")

    def test_null_equality_rejected(self):
        # Equals itself refuses NULL; bareword NULL is just a string here,
        # but the library idiom is explicit possible-answer retrieval.
        query = parse_selection("make = NULL")
        assert query.equality_value("make") == "NULL"  # a plain string


class TestEndToEnd:
    def test_parsed_query_mediates(self, cars_env):
        from repro.core import QpiadConfig, QpiadMediator

        query = parse_selection(
            "body_style = 'Convt' AND price BETWEEN 10000 AND 60000"
        )
        mediator = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=5)
        )
        result = mediator.query(query)
        assert len(result.certain) > 0
