"""PlannerConfig validates its own fields at construction."""

import pytest

from repro.errors import QpiadError, QueryError
from repro.planner import PlannerConfig


@pytest.mark.parametrize("min_confidence", [-0.1, 1.5])
def test_min_confidence_outside_unit_interval_rejected(min_confidence):
    with pytest.raises(QpiadError, match=r"min_confidence must be in \[0, 1\]"):
        PlannerConfig(min_confidence=min_confidence)


def test_unknown_inclusion_rule_rejected():
    with pytest.raises(QueryError, match="unknown inclusion rule 'majority'"):
        PlannerConfig(inclusion_rule="majority")


@pytest.mark.parametrize("rule", ["argmax", "fractional"])
def test_valid_fields_accepted(rule):
    config = PlannerConfig(min_confidence=1.0, inclusion_rule=rule)
    assert config.inclusion_rule == rule
