"""Relation operations and NULL bookkeeping."""

import pytest

from repro.errors import SchemaError
from repro.relational import NULL, Relation, Schema


@pytest.fixture()
def cars() -> Relation:
    schema = Schema.of("make", "model", "body")
    return Relation(
        schema,
        [
            ("Honda", "Accord", "Sedan"),
            ("Honda", "Civic", NULL),
            ("BMW", "Z4", "Convt"),
            ("BMW", NULL, "Convt"),
            ("Honda", "Accord", "Sedan"),
        ],
    )


class TestConstruction:
    def test_coerces_none_and_blank(self):
        relation = Relation(Schema.of("a", "b"), [(None, " ")])
        assert relation.rows[0] == (NULL, NULL)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="arity"):
            Relation(Schema.of("a", "b"), [(1,)])

    def test_empty_relation(self):
        relation = Relation(Schema.of("a"))
        assert len(relation) == 0
        assert not relation
        assert relation.incomplete_fraction() == 0.0


class TestAccessors:
    def test_value(self, cars):
        assert cars.value(cars.rows[0], "model") == "Accord"

    def test_column(self, cars):
        assert cars.column("make") == ("Honda", "Honda", "BMW", "BMW", "Honda")

    def test_equality_is_bag_semantics(self, cars):
        shuffled = Relation(cars.schema, list(reversed(cars.rows)))
        assert cars == shuffled

    def test_equality_respects_multiplicity(self, cars):
        deduped = Relation(cars.schema, set(cars.rows))
        assert cars != deduped


class TestRelationalOps:
    def test_select(self, cars):
        hondas = cars.select(lambda row: row[0] == "Honda")
        assert len(hondas) == 3

    def test_project_keeps_duplicates(self, cars):
        makes = cars.project(["make"])
        assert len(makes) == 5

    def test_project_distinct_preserves_first_seen_order(self, cars):
        makes = cars.project(["make"], distinct=True)
        assert makes.rows == (("Honda",), ("BMW",))

    def test_distinct_values_skips_null_by_default(self, cars):
        assert cars.distinct_values("model") == ["Accord", "Civic", "Z4"]

    def test_distinct_values_can_include_null(self, cars):
        assert NULL in cars.distinct_values("model", include_null=True)

    def test_value_counts(self, cars):
        counts = cars.value_counts("make")
        assert counts["Honda"] == 3 and counts["BMW"] == 2

    def test_concat_requires_same_schema(self, cars):
        with pytest.raises(SchemaError):
            cars.concat(Relation(Schema.of("x"), [(1,)]))

    def test_concat(self, cars):
        doubled = cars.concat(cars)
        assert len(doubled) == 10

    def test_take(self, cars):
        assert len(cars.take(2)) == 2
        assert len(cars.take(100)) == 5


class TestNullBookkeeping:
    def test_null_count_and_fraction(self, cars):
        assert cars.null_count("model") == 1
        assert cars.null_fraction("model") == pytest.approx(0.2)

    def test_incomplete_fraction(self, cars):
        assert cars.incomplete_fraction() == pytest.approx(2 / 5)


class TestPresentation:
    def test_head_renders_all_columns(self, cars):
        text = cars.head(2)
        assert "make" in text and "NULL" not in text.splitlines()[0]
        assert "(5 rows total)" in text

    def test_repr(self, cars):
        assert "5 rows" in repr(cars)


class TestContentDigest:
    def test_digest_is_deterministic_and_order_sensitive(self, cars):
        again = Relation(cars.schema, cars.rows)
        assert cars.content_digest() == again.content_digest()
        reversed_rows = Relation(cars.schema, list(reversed(cars.rows)))
        assert cars.content_digest() != reversed_rows.content_digest()

    def test_concat_folds_the_memoized_digest(self, cars):
        batch = Relation(cars.schema, [("Audi", "A4", "Sedan"), ("Audi", NULL, NULL)])
        cars.content_digest()  # memoize, so concat copies the hash state
        folded = cars.concat(batch)
        from_scratch = Relation(cars.schema, [*cars.rows, *batch.rows])
        assert folded.content_digest() == from_scratch.content_digest()

    def test_concat_without_memoized_digest_matches_too(self, cars):
        batch = Relation(cars.schema, [("Audi", "A4", "Sedan")])
        assert (
            cars.concat(batch).content_digest()
            == Relation(cars.schema, [*cars.rows, *batch.rows]).content_digest()
        )

    def test_null_and_the_string_null_hash_differently(self):
        schema = Schema.of("a")
        assert (
            Relation(schema, [(NULL,)]).content_digest()
            != Relation(schema, [("NULL",)]).content_digest()
        )

    def test_derived_relations_do_not_inherit_the_digest(self, cars):
        cars.content_digest()
        selected = cars.select(lambda row: row[0] == "Honda")
        assert selected.content_digest() != cars.content_digest()
        renamed = Relation(Schema.of("manufacturer", "model", "body"), cars.rows)
        # The schema header is part of the digest, so renaming changes it.
        assert renamed.content_digest() != cars.content_digest()


class TestFromCoerced:
    def test_matches_normal_construction_on_coerced_rows(self, cars):
        trusted = Relation.from_coerced(cars.schema, cars.rows)
        assert trusted == cars
        assert trusted.content_digest() == cars.content_digest()

    def test_incomplete_count_agrees(self, cars):
        trusted = Relation.from_coerced(cars.schema, cars.rows)
        assert trusted.incomplete_count() == cars.incomplete_count() == 2
