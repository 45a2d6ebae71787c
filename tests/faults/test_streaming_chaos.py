"""Scheduling chaos on the streaming join path.

The symmetric-hash tree consumes component results in call-completion
order, which a concurrent executor makes nondeterministic.  These tests
scramble that order on purpose — a jitter wrapper sleeps a seeded random
few milliseconds per source call — and pin the determinism contract:
whatever the interleaving, at widths 2, 4 and 8,

* certain answers are never lost,
* the final ranked answers are bit-identical to a serial materialized
  run (confidences, certainty flags, order — everything), and
* ``queries_issued`` still equals the sources' own call logs exactly.
"""

import random
import threading
import time

import pytest

from repro.core import JoinConfig, JoinProcessor
from repro.query import JoinQuery, SelectionQuery
from repro.sources import SourceDecorator

JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)
WIDTHS = (2, 4, 8)


class JitterSource(SourceDecorator):
    """Delegates to a real source after a seeded random delay per call,
    so concurrent component calls complete in a scrambled order."""

    def __init__(self, inner, seed):
        super().__init__(inner)
        self._random = random.Random(seed)
        self._lock = threading.Lock()

    def execute(self, query):
        with self._lock:
            delay = self._random.uniform(0.0, 0.004)
        time.sleep(delay)
        return self.inner.execute(query)


def _processor(cars_env, complaints_env, width, jitter=None):
    """*jitter*, when given, is a ``(left, right)`` pair of wrappers the
    sources go through — the materialized reference run passes none."""
    left = cars_env.web_source()
    right = complaints_env.web_source()
    wrap_left, wrap_right = jitter if jitter is not None else (None, None)
    processor = JoinProcessor(
        wrap_left(left) if wrap_left else left,
        wrap_right(right) if wrap_right else right,
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
    )
    return processor, left, right


def _jitter(seed):
    return (
        lambda source: JitterSource(source, seed),
        lambda source: JitterSource(source, seed + 1000),
    )


def _fingerprint(result):
    return (
        [
            (a.left_row, a.right_row, a.join_value, a.confidence, a.certain)
            for a in result.answers
        ],
        result.pairs_considered,
        result.pairs_issued,
        result.base_queries_issued,
        result.component_queries_issued,
        result.stats.queries_issued,
    )


@pytest.fixture(scope="module")
def materialized(cars_env, complaints_env):
    """The reference: a serial, jitter-free run."""
    return _processor(cars_env, complaints_env, width=1)[0].query(JOIN)


class TestStreamingDeterminismUnderChaos:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ranked_answers_identical_to_materialized(
        self, cars_env, complaints_env, materialized, width, seed
    ):
        processor, left, right = _processor(
            cars_env, complaints_env, width, jitter=_jitter(seed)
        )
        result = processor.query(JOIN)
        assert _fingerprint(result) == _fingerprint(materialized)
        # Certain answers in particular: none lost, none invented.
        assert [a.row for a in result.certain] == [
            a.row for a in materialized.certain
        ]
        # Billing survives the scrambled schedule: the counters agree
        # with the sources' own access logs call for call.
        calls = sum(
            s.statistics.queries_answered + s.statistics.rejected_queries
            for s in (left, right)
        )
        assert result.stats.queries_issued == calls
