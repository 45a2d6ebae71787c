"""Unit tests of the CLI's argument parsing helpers."""

import pytest

from repro.cli import _parse_where, build_parser
from repro.datasets import generate_cars
from repro.errors import QpiadError
from repro.query import Between, Equals


@pytest.fixture(scope="module")
def cars():
    return generate_cars(50, seed=1)


class TestParseWhere:
    def test_categorical_equality(self, cars):
        predicate = _parse_where("make=Honda", cars)
        assert predicate == Equals("make", "Honda")

    def test_numeric_equality_parses_numbers(self, cars):
        predicate = _parse_where("price=20000", cars)
        assert predicate == Equals("price", 20000)
        assert isinstance(predicate.value, int)

    def test_numeric_range(self, cars):
        predicate = _parse_where("price=15000..20000", cars)
        assert predicate == Between("price", 15000, 20000)

    def test_float_values(self, cars):
        predicate = _parse_where("price=19999.5", cars)
        assert predicate.value == pytest.approx(19999.5)

    def test_whitespace_tolerated(self, cars):
        predicate = _parse_where(" make = Honda ", cars)
        assert predicate == Equals("make", "Honda")

    def test_missing_equals_rejected(self, cars):
        with pytest.raises(QpiadError, match="malformed"):
            _parse_where("make", cars)

    def test_unknown_attribute_rejected(self, cars):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            _parse_where("color=red", cars)

    def test_unparseable_number_rejected(self, cars):
        with pytest.raises(QpiadError, match="numeric"):
            _parse_where("price=cheap", cars)


class TestParserSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "cars", "--out", "x.csv"],
            ["stats", "x.csv"],
            ["mine", "x.csv", "--db-size", "100", "--out", "kb.json"],
            ["query", "x.csv", "--where", "a=b"],
            ["relax", "x.csv", "--where", "a=b"],
            ["impute", "x.csv", "--out", "y.csv"],
            ["demo"],
            ["chaos"],
            ["chaos", "--seed", "3", "--failure-rate", "0.3", "--size", "500"],
        ],
    )
    def test_every_subcommand_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_query_requires_where(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "x.csv"])

    def test_mine_requires_db_size(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "x.csv", "--out", "kb.json"])

    def test_query_width_is_unpinned_unless_given(self):
        parser = build_parser()
        assert parser.parse_args(["query", "x.csv", "--where", "a=b"]).concurrency is None
        pinned = parser.parse_args(["query", "x.csv", "--where", "a=b", "--concurrency", "4"])
        assert pinned.concurrency == 4

    def test_chaos_width_stays_pinned_for_replay(self):
        assert build_parser().parse_args(["chaos"]).concurrency == 1
