"""Determinism and validation of seeded fault schedules."""

import pytest

from repro.errors import QpiadError
from repro.faults import FaultKind, FaultPlan


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan(seed=11, unavailable_rate=0.3, truncate_rate=0.2)
        plan_b = FaultPlan(seed=11, unavailable_rate=0.3, truncate_rate=0.2)
        assert plan_a.schedule(200) == plan_b.schedule(200)

    def test_different_seeds_differ(self):
        plan_a = FaultPlan(seed=1, unavailable_rate=0.5)
        plan_b = FaultPlan(seed=2, unavailable_rate=0.5)
        assert plan_a.schedule(100) != plan_b.schedule(100)

    def test_decision_is_pure_in_index(self):
        # Not a shared stream: decision 7 is the same whether or not
        # decisions 0..6 were ever computed.
        plan = FaultPlan(seed=5, unavailable_rate=0.4)
        direct = plan.decide(7)
        plan.schedule(100)  # consume "earlier" decisions
        assert plan.decide(7) == direct

    def test_rates_shape_the_schedule(self):
        plan = FaultPlan(seed=3, unavailable_rate=0.3)
        kinds = plan.schedule(1000)
        faulted = sum(1 for kind in kinds if kind is not None)
        assert 200 <= faulted <= 400  # ~30% of 1000
        assert set(kinds) <= {None, FaultKind.UNAVAILABLE}

    def test_spare_first_protects_a_prefix(self):
        plan = FaultPlan(seed=3, unavailable_rate=1.0, spare_first=3)
        assert plan.schedule(5) == [
            None, None, None, FaultKind.UNAVAILABLE, FaultKind.UNAVAILABLE
        ]

    def test_all_modes_reachable(self):
        plan = FaultPlan(
            seed=9,
            unavailable_rate=0.3,
            churn_rate=0.3,
            truncate_rate=0.4,
        )
        assert set(plan.schedule(500)) == set(FaultKind.ALL)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(QpiadError):
            FaultPlan(seed=1, unavailable_rate=1.5)
        with pytest.raises(QpiadError):
            FaultPlan(seed=1, churn_rate=-0.1)

    def test_rates_must_not_exceed_one_combined(self):
        with pytest.raises(QpiadError):
            FaultPlan(seed=1, unavailable_rate=0.6, truncate_rate=0.6)

    def test_truncate_fraction_bounds(self):
        with pytest.raises(QpiadError):
            FaultPlan(seed=1, truncate_fraction=1.2)

    def test_negative_knobs_rejected(self):
        with pytest.raises(QpiadError):
            FaultPlan(seed=1, spare_first=-1)
