"""Disabled means free: no plan cache and no telemetry cost nothing.

With ``plan_cache=None`` and ``telemetry=None`` a mediated query must
compute no fingerprint, open no span, format no span name and read no
telemetry clock.  The check counts calls through a monkeypatch rather
than timing anything, so it is deterministic.  The same counters see the work when a cache and a
telemetry hook are given, which shows the patches are live.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.planner.fingerprint as fingerprint_module
import repro.telemetry.telemetry as telemetry_module
from repro.core import JoinConfig, JoinProcessor, QpiadMediator
from repro.engine import PlannedQuery
from repro.mining.knowledge import KnowledgeBase
from repro.planner import PlanCache
from repro.query import JoinQuery, SelectionQuery
from repro.relational.relation import Relation
from repro.telemetry import Span, Telemetry

SELECTION = SelectionQuery.equals("body_style", "Convt")
JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)


@pytest.fixture()
def calls(monkeypatch):
    """Counts of fingerprint computations, span constructions and the
    formatting of span names."""
    counts: Counter = Counter()

    def count(owner, attribute, label):
        original = getattr(owner, attribute)

        def counting(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counting)

    # stable_digest is imported by name, so patch every module's binding.
    digest = fingerprint_module.stable_digest
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("stable_digest") is digest:
            count(module, "stable_digest", "stable_digest")
    count(Relation, "content_digest", "content_digest")
    count(KnowledgeBase, "fingerprint", "fingerprint")
    count(Span, "__init__", "Span")
    # A span name formats its planned query, and a root span the user's.
    count(PlannedQuery, "span_name", "span_name")
    for query_type, user_query in ((SelectionQuery, SELECTION), (JoinQuery, JOIN)):
        original_repr = query_type.__repr__

        def counting_repr(self, original_repr=original_repr, user_query=user_query):
            if self is user_query:
                counts["user query repr"] += 1
            return original_repr(self)

        monkeypatch.setattr(query_type, "__repr__", counting_repr)
    # The telemetry module reads the wall clock through its ``time`` binding.
    clock = SimpleNamespace(monotonic=time.monotonic)
    count(clock, "monotonic", "clock")
    monkeypatch.setattr(telemetry_module, "time", clock)
    return counts


def _selection(env, **hooks):
    return QpiadMediator(env.web_source(), env.knowledge, **hooks).query(SELECTION)


def _join(cars_env, complaints_env, **hooks):
    return JoinProcessor(
        cars_env.web_source(),
        complaints_env.web_source(),
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10),
        **hooks,
    ).query(JOIN)


class TestDisabledIsFree:
    def test_selection(self, cars_env, calls):
        result = _selection(cars_env, plan_cache=None, telemetry=None)
        assert result.ranked
        assert calls == Counter()

    def test_join(self, cars_env, complaints_env, calls):
        result = _join(cars_env, complaints_env, plan_cache=None, telemetry=None)
        assert result.possible
        assert calls == Counter()


class TestEnabledIsCounted:
    def test_selection(self, cars_env, calls):
        _selection(cars_env, plan_cache=PlanCache(), telemetry=Telemetry())
        assert calls["stable_digest"] and calls["fingerprint"] and calls["Span"]
        assert calls["span_name"] and calls["user query repr"]

    def test_join(self, cars_env, complaints_env, calls):
        _join(cars_env, complaints_env, plan_cache=PlanCache(), telemetry=Telemetry())
        assert calls["stable_digest"] and calls["fingerprint"] and calls["Span"]
        assert calls["span_name"]


class TestInjectedClock:
    def test_first_answer_latency_uses_the_telemetry_clock(
        self, cars_env, complaints_env
    ):
        ticks = itertools.count(0.0, 10.0)  # every read advances ten seconds
        telemetry = Telemetry(clock=lambda: next(ticks))
        _join(cars_env, complaints_env, telemetry=telemetry)
        histogram = telemetry.metrics.histogram("mediator.time_to_first_answer_seconds")
        assert histogram.count == 1
        assert histogram.mean >= 10.0
