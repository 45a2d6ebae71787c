"""Autonomous-source capability enforcement and statistics."""

import os
import sys
import threading
import time

import pytest

from repro.errors import (
    NullBindingError,
    QueryBudgetExceededError,
    UnsupportedAttributeError,
)
from repro.query import SelectionQuery
from repro.relational import NULL, Relation, Schema
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture()
def backend() -> Relation:
    schema = Schema.of("make", "model", "body")
    return Relation(
        schema,
        [
            ("Honda", "Accord", "Sedan"),
            ("Honda", "Civic", NULL),
            ("BMW", "Z4", "Convt"),
            ("BMW", "Z4", NULL),
        ],
    )


class TestWebFormInterface:
    def test_execute_returns_certain_answers_only(self, backend):
        source = AutonomousSource("cars", backend)
        result = source.execute(SelectionQuery.equals("body", "Convt"))
        assert len(result) == 1

    def test_null_binding_rejected_by_web_forms(self, backend):
        source = AutonomousSource("cars", backend)
        with pytest.raises(NullBindingError):
            source.execute_null_binding(SelectionQuery.equals("body", "Convt"))
        assert source.statistics.rejected_queries == 1

    def test_null_binding_allowed_when_capability_set(self, backend):
        source = AutonomousSource("cars", backend, SourceCapabilities.unrestricted())
        result = source.execute_null_binding(SelectionQuery.equals("body", "Convt"))
        assert len(result) == 2  # both NULL-body rows

    def test_unsupported_attribute_rejected(self, backend):
        source = AutonomousSource("yahoo", backend, local_attributes=["make", "model"])
        with pytest.raises(UnsupportedAttributeError):
            source.execute(SelectionQuery.equals("body", "Convt"))

    def test_local_schema_projection(self, backend):
        source = AutonomousSource("yahoo", backend, local_attributes=["make", "model"])
        assert source.schema.names == ("make", "model")
        result = source.execute(SelectionQuery.equals("model", "Z4"))
        assert all(len(row) == 2 for row in result)

    def test_supports(self, backend):
        source = AutonomousSource("yahoo", backend, local_attributes=["make"])
        assert source.supports("make") and not source.supports("body")


class TestBudgetsAndCaps:
    def test_query_budget_enforced(self, backend):
        source = AutonomousSource(
            "cars", backend, SourceCapabilities.web_form(query_budget=2)
        )
        query = SelectionQuery.equals("make", "Honda")
        source.execute(query)
        source.execute(query)
        with pytest.raises(QueryBudgetExceededError):
            source.execute(query)

    def test_max_results_caps_output(self, backend):
        source = AutonomousSource(
            "cars", backend, SourceCapabilities.web_form(max_results=1)
        )
        result = source.execute(SelectionQuery.equals("make", "Honda"))
        assert len(result) == 1


class TestBudgetUnderConcurrentCallers:
    BUDGET = 3
    TRIALS = 20
    SECONDS = 2.0
    JOIN_TIMEOUT_S = 10.0

    def test_concurrent_calls_never_overrun_the_budget(self, backend):
        # More callers than cores, released together, with the interpreter
        # switching threads as often as it can: the budget check and the
        # count must be one step, or two callers both see a free slot.
        big = Relation(backend.schema, list(backend.rows) * 500)
        workers = max(8, 2 * (os.cpu_count() or 1))
        query = SelectionQuery.equals("make", "Honda")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stop_at = time.monotonic() + self.SECONDS
            for __ in range(self.TRIALS):
                source = AutonomousSource(
                    "cars", big, SourceCapabilities.web_form(query_budget=self.BUDGET)
                )
                gate = threading.Barrier(workers, timeout=self.JOIN_TIMEOUT_S)
                answered: list[int] = []

                def call() -> None:
                    gate.wait()
                    try:
                        source.execute(query)
                    except QueryBudgetExceededError:
                        return
                    answered.append(1)

                threads = [threading.Thread(target=call) for __ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(self.JOIN_TIMEOUT_S)
                assert not any(thread.is_alive() for thread in threads)
                assert source.statistics.queries_answered <= self.BUDGET
                assert len(answered) == source.statistics.queries_answered
                if time.monotonic() > stop_at:
                    break
        finally:
            sys.setswitchinterval(interval)


class TestStatistics:
    def test_traffic_accounting(self, backend):
        source = AutonomousSource("cars", backend)
        source.execute(SelectionQuery.equals("make", "Honda"))
        source.execute(SelectionQuery.equals("make", "BMW"))
        assert source.statistics.queries_answered == 2
        assert source.statistics.tuples_returned == 2 + 2  # two Hondas, two BMWs

    def test_reset(self, backend):
        source = AutonomousSource("cars", backend)
        source.execute(SelectionQuery.equals("make", "Honda"))
        source.reset_statistics()
        assert source.statistics.queries_answered == 0
        assert source.statistics.tuples_returned == 0

    def test_cardinality_exposure(self, backend):
        open_source = AutonomousSource("cars", backend)
        assert open_source.cardinality() == 4
        opaque = AutonomousSource(
            "cars",
            backend,
            SourceCapabilities(exposes_cardinality=False),
        )
        with pytest.raises(UnsupportedAttributeError):
            opaque.cardinality()

    def test_repr(self, backend):
        assert "4 tuples" in repr(AutonomousSource("cars", backend))
