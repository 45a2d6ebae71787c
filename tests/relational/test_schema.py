"""Schema construction, lookup and derivation."""

import pytest

from repro.errors import SchemaError
from repro.relational import Attribute, AttributeType, Schema


class TestAttribute:
    def test_defaults_to_categorical(self):
        assert Attribute("make").type is AttributeType.CATEGORICAL

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_str(self):
        assert str(Attribute("price")) == "price"


class TestSchemaConstruction:
    def test_of_accepts_mixed_specs(self):
        schema = Schema.of("make", ("price", AttributeType.NUMERIC), Attribute("model"))
        assert schema.names == ("make", "price", "model")
        assert schema["price"].type is AttributeType.NUMERIC

    def test_requires_at_least_one_attribute(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.of("make", "make")

    def test_non_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["make"])  # type: ignore[list-item]


class TestSchemaLookup:
    @pytest.fixture()
    def schema(self) -> Schema:
        return Schema.of("make", "model", ("year", AttributeType.NUMERIC))

    def test_index_of(self, schema):
        assert schema.index_of("model") == 1

    def test_index_of_unknown_raises_with_hint(self, schema):
        with pytest.raises(SchemaError, match="unknown attribute 'color'"):
            schema.index_of("color")

    def test_indices_of_preserves_order(self, schema):
        assert schema.indices_of(["year", "make"]) == (2, 0)

    def test_contains(self, schema):
        assert "make" in schema
        assert "color" not in schema

    def test_getitem_by_name_and_position(self, schema):
        assert schema["year"] is schema[2]

    def test_len_and_iter(self, schema):
        assert len(schema) == 3
        assert [a.name for a in schema] == ["make", "model", "year"]

    def test_is_numeric(self, schema):
        assert schema.is_numeric("year")
        assert not schema.is_numeric("make")


class TestSchemaDerivation:
    @pytest.fixture()
    def schema(self) -> Schema:
        return Schema.of("make", "model", ("year", AttributeType.NUMERIC))

    def test_project(self, schema):
        projected = schema.project(["year", "make"])
        assert projected.names == ("year", "make")
        assert projected["year"].type is AttributeType.NUMERIC

    def test_equality_and_hash(self, schema):
        twin = Schema.of("make", "model", ("year", AttributeType.NUMERIC))
        assert schema == twin
        assert hash(schema) == hash(twin)
        assert schema != schema.project(["make"])
