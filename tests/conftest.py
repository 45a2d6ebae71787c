"""Shared fixtures.

Heavyweight experimental environments are session-scoped: they are
deterministic (seeded) and read-only from the tests' perspective, so
building them once keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_cars, generate_census, generate_complaints
from repro.evaluation import build_environment
from repro.relational import NULL, AttributeType, Relation, Schema
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture()
def car_fragment() -> Relation:
    """Table 2 of the paper: the six-tuple car fragment."""
    schema = Schema.of("id", "make", "model", ("year", AttributeType.NUMERIC), "body_style")
    return Relation(
        schema,
        [
            (1, "Audi", "A4", 2001, "Convt"),
            (2, "BMW", "Z4", 2002, "Convt"),
            (3, "Porsche", "Boxster", 2005, "Convt"),
            (4, "BMW", "Z4", 2003, NULL),
            (5, "Honda", "Civic", 2004, NULL),
            (6, "Toyota", "Camry", 2002, "Sedan"),
        ],
    )


@pytest.fixture(scope="session")
def cars_env():
    """A seeded Cars experimental environment (GD → ED → train/test + KB)."""
    return build_environment(generate_cars(4000, seed=7), seed=42, name="cars")


@pytest.fixture(scope="session")
def census_env():
    return build_environment(generate_census(5000, seed=11), seed=42, name="census")


@pytest.fixture(scope="session")
def complaints_env():
    return build_environment(
        generate_complaints(5000, seed=23), seed=43, name="complaints"
    )


#: Models whose first complete Cars test row loses make and body_style:
#: BMWs of several body styles, and other makes' convertibles and sedans.
TWO_NULL_MODELS = (
    "Z4", "530i", "325i", "M3", "X5", "Boxster",
    "911", "S2000", "Corvette", "Solara", "A4 Cabriolet", "Civic",
)


@pytest.fixture(scope="session")
def cars_two_nulls(cars_env):
    """Twelve Cars test rows with both ``make`` and ``body_style`` NULL.

    The first complete test row of each of :data:`TWO_NULL_MODELS` loses
    both values.  Returns an unrestricted source (NULL binding allowed)
    over the test relation with those rows changed, and the twelve rows
    in source order.
    """
    test = cars_env.test
    schema = test.schema
    model = schema.index_of("model")
    blanked = {schema.index_of("make"), schema.index_of("body_style")}
    pending = set(TWO_NULL_MODELS)
    rows, two_nulls = [], []
    for row in test:
        if row[model] in pending and test.is_complete_row(row):
            pending.remove(row[model])
            row = tuple(NULL if i in blanked else v for i, v in enumerate(row))
            two_nulls.append(row)
        rows.append(row)
    source = AutonomousSource(
        "cars-two-nulls", Relation(schema, rows), SourceCapabilities.unrestricted()
    )
    return source, two_nulls
