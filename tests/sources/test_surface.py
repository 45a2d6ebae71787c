"""The one source surface: ``Source`` and the ``SourceDecorator`` base.

Every production wrapper is a ``SourceDecorator``.  Around a restricted
source, each must forward the schema-level members unchanged, pass each
call that reaches the source through ``_call`` exactly once under its
own operation name, and reset the inner source's statistics.
"""

import pytest

from repro.faults import FaultInjectingSource, FaultPlan
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema
from repro.sources import (
    AutonomousSource,
    CachingSource,
    Source,
    SourceCapabilities,
    SourceDecorator,
)

BINDABLE = SelectionQuery.equals("make", "Honda")
UNBINDABLE = SelectionQuery.equals("price", 20000)

WRAPPERS = {
    "caching": CachingSource,
    "injecting": lambda inner: FaultInjectingSource(inner, FaultPlan(seed=1)),
}


@pytest.fixture()
def inner() -> AutonomousSource:
    backend = Relation(
        Schema.of("make", "model", "price", "year"),
        [
            ("Honda", "Accord", 20000, 2001),
            ("BMW", "Z4", 41000, 2003),
            (NULL, "Civic", 15000, 1999),
        ],
    )
    # "year" is hidden from the local schema; "price" is shown but unbindable.
    return AutonomousSource(
        "cars",
        backend,
        SourceCapabilities(
            allows_null_binding=True,
            queryable_attributes=frozenset({"make", "model"}),
        ),
        local_attributes=("make", "model", "price"),
    )


@pytest.fixture(params=sorted(WRAPPERS))
def wrapper(request, inner) -> SourceDecorator:
    return WRAPPERS[request.param](inner)


def test_schema_level_members_forward(wrapper, inner):
    assert wrapper.name == "cars"
    assert wrapper.schema == inner.schema
    assert wrapper.capabilities is inner.capabilities
    assert wrapper.supports("price")
    assert not wrapper.supports("year")
    assert wrapper.can_answer(BINDABLE)
    assert not wrapper.can_answer(UNBINDABLE)


def test_each_source_call_passes_the_hook_once(wrapper, monkeypatch):
    operations = []
    hook = wrapper._call

    def spy(operation, thunk):
        operations.append(operation)
        return hook(operation, thunk)

    monkeypatch.setattr(wrapper, "_call", spy)
    assert wrapper.cardinality() == 3
    assert len(wrapper.execute(BINDABLE)) == 1
    assert len(wrapper.execute_null_binding(BINDABLE)) == 1
    assert operations == ["cardinality", "execute", "execute_null_binding"]


def test_reset_statistics_reaches_the_inner_source(wrapper, inner):
    wrapper.execute(BINDABLE)
    assert inner.statistics.queries_answered == 1
    wrapper.reset_statistics()
    assert inner.statistics.queries_answered == 0


def test_source_declares_the_decorator_surface():
    declared = {name for name in vars(Source) if not name.startswith("_")}
    forwarded = {name for name in dir(SourceDecorator) if not name.startswith("_")}
    assert declared == forwarded == {
        "name",
        "schema",
        "capabilities",
        "supports",
        "can_answer",
        "cardinality",
        "execute",
        "execute_null_binding",
        "reset_statistics",
    }
