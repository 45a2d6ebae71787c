"""The fault-injecting source wrapper, mode by mode."""

import pytest

from repro.errors import SourceUnavailableError
from repro.faults import FaultInjectingSource, FaultKind, FaultPlan
from repro.query import SelectionQuery
from repro.relational import Relation, Schema
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture()
def backend() -> AutonomousSource:
    relation = Relation(
        Schema.of("make", "model"),
        [("Honda", "Accord"), ("Honda", "Civic"), ("BMW", "Z4"), ("BMW", "325i")],
    )
    return AutonomousSource("cars", relation)


QUERY = SelectionQuery.equals("make", "Honda")


class TestUnavailability:
    def test_raises_without_charging_the_budget(self):
        relation = Relation(Schema.of("make"), [("Honda",)])
        source = AutonomousSource(
            "cars", relation, SourceCapabilities.web_form(query_budget=5)
        )
        faulty = FaultInjectingSource(
            source, FaultPlan(seed=1, unavailable_rate=1.0)
        )
        with pytest.raises(SourceUnavailableError):
            faulty.execute(QUERY)
        assert source.statistics.queries_answered == 0
        assert faulty.statistics.unavailable == 1

    def test_healthy_calls_pass_through(self, backend):
        faulty = FaultInjectingSource(backend, FaultPlan(seed=1))
        assert len(faulty.execute(QUERY)) == 2
        assert faulty.statistics.healthy == 1
        assert faulty.statistics.faults_injected == 0


class TestChurn:
    def test_budget_charged_but_call_fails(self):
        relation = Relation(Schema.of("make"), [("Honda",)])
        source = AutonomousSource(
            "cars", relation, SourceCapabilities.web_form(query_budget=5)
        )
        faulty = FaultInjectingSource(source, FaultPlan(seed=1, churn_rate=1.0))
        with pytest.raises(SourceUnavailableError):
            faulty.execute(QUERY)
        # The source did the work — the response was lost on the way back.
        assert source.statistics.queries_answered == 1
        assert faulty.statistics.churned == 1


class TestTruncation:
    def test_results_are_cut_to_the_fraction(self, backend):
        faulty = FaultInjectingSource(
            backend,
            FaultPlan(seed=1, truncate_rate=1.0, truncate_fraction=0.5),
        )
        result = faulty.execute(QUERY)
        assert len(result) == 1  # half of the two Hondas
        assert faulty.statistics.truncated == 1
        assert faulty.statistics.tuples_dropped == 1

    def test_cardinality_is_never_truncated(self, backend):
        faulty = FaultInjectingSource(
            backend, FaultPlan(seed=1, truncate_rate=1.0)
        )
        assert faulty.cardinality() == 4


class TestReproducibility:
    def test_same_seed_same_events(self, backend):
        def run(seed: int):
            faulty = FaultInjectingSource(
                backend,
                FaultPlan(seed=seed, unavailable_rate=0.4, truncate_rate=0.3),
            )
            for __ in range(30):
                try:
                    faulty.execute(QUERY)
                except SourceUnavailableError:
                    pass
            return faulty.statistics.events

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_reset_replays_the_schedule(self, backend):
        faulty = FaultInjectingSource(
            backend, FaultPlan(seed=7, unavailable_rate=0.5)
        )

        def drive():
            outcomes = []
            for __ in range(20):
                try:
                    faulty.execute(QUERY)
                    outcomes.append("ok")
                except SourceUnavailableError:
                    outcomes.append("down")
            return outcomes

        first = drive()
        faulty.reset_statistics()
        assert drive() == first


class TestSurface:
    def test_every_query_method_is_faultable(self, backend):
        faulty = FaultInjectingSource(
            backend, FaultPlan(seed=1, unavailable_rate=1.0)
        )
        with pytest.raises(SourceUnavailableError):
            faulty.execute_null_binding(QUERY)
        with pytest.raises(SourceUnavailableError):
            faulty.cardinality()
        assert faulty.statistics.calls == 2


class TestScheduleEvents:
    def test_events_carry_index_kind_and_operation(self, backend):
        faulty = FaultInjectingSource(
            backend, FaultPlan(seed=1, unavailable_rate=1.0)
        )
        with pytest.raises(SourceUnavailableError):
            faulty.execute(QUERY)
        (event,) = faulty.statistics.events
        assert event.index == 0
        assert event.kind == FaultKind.UNAVAILABLE
        assert event.operation == "execute"
