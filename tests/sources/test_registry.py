"""Mediator-side source registry under a global schema."""

import pytest

from repro.errors import SchemaError
from repro.relational import Relation, Schema
from repro.sources import AutonomousSource, SourceRegistry


@pytest.fixture()
def registry() -> SourceRegistry:
    global_schema = Schema.of("make", "model", "body")
    backend = Relation(global_schema, [("Honda", "Accord", "Sedan")])
    full = AutonomousSource("cars.com", backend)
    partial = AutonomousSource("yahoo", backend, local_attributes=["make", "model"])
    return SourceRegistry(global_schema, [full, partial])


class TestRegistration:
    def test_sources_are_registered(self, registry):
        assert [source.name for source in registry] == ["cars.com", "yahoo"]

    def test_duplicate_name_rejected(self, registry):
        backend = Relation(Schema.of("make"), [("Honda",)])
        with pytest.raises(SchemaError, match="already registered"):
            registry.register(AutonomousSource("yahoo", backend))

    def test_attribute_outside_global_schema_rejected(self):
        global_schema = Schema.of("make")
        backend = Relation(Schema.of("make", "color"), [("Honda", "red")])
        registry = SourceRegistry(global_schema)
        with pytest.raises(SchemaError, match="not in the global schema"):
            registry.register(AutonomousSource("odd", backend))


class TestSupportQueries:
    def test_supporting(self, registry):
        names = [source.name for source in registry.supporting("body")]
        assert names == ["cars.com"]

    def test_everyone_supports_make(self, registry):
        assert len(registry.supporting("make")) == 2
