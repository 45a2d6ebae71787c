"""Pair EstSels do not depend on ``PYTHONHASHSEED``.

A join scores each query pair by summing both sides' ``est_sel`` products
over the join values they share (§4.5, step 3a).  Summed in the order of a
set of strings, the last bits of each sum followed string hashing, so two
processes could rank tied pairs differently.  The products are now added
one by one in the left distribution's own order.  This module digests
every pair EstSel of a seeded Cars ⋈ Complaints cycle, by ``float.hex``,
and CI runs it under hash seeds 0, 1 and 2.
"""

from __future__ import annotations

import hashlib

from repro.core import JoinConfig, JoinProcessor
from repro.core.joins import _QueryPair, _Side
from repro.evaluation import join_workload
from repro.query import SelectionQuery

#: The SHA-256 of every pair EstSel's ``float.hex``, in scoring order.
PAIR_ESTSELS = "6f488655460d76de6bb619fb27bfc83fcd872292831e051d859308eb2b167d24"
PAIRS = 608


def _side(distribution):
    return _Side(
        query=SelectionQuery.equals("model", "M"),
        is_rewritten=True,
        precision=1.0,
        selectivity=1.0,
        join_distribution=distribution,
    )


def test_disjoint_sides_score_a_float_zero():
    score = _QueryPair(_side({"A": 1.0}), _side({"B": 1.0})).estimated_selectivity()
    assert type(score) is float and score == 0.0


def test_the_sum_runs_in_the_left_distribution_order():
    """Products 1, 2**-53 and 2**-53 sum to 1.0 in that order and to
    1 + 2**-52 when the two small ones come first; values only the right
    side holds add nothing."""
    tiny = 2.0**-53
    left = _side({"a": 1.0, "b": tiny, "c": tiny})
    right = _side({"c": 1.0, "d": 5.0, "b": 1.0, "a": 1.0})
    assert _QueryPair(left, right).estimated_selectivity() == 1.0
    assert (tiny + tiny) + 1.0 != 1.0


def test_every_pair_estsel_of_a_seeded_cycle(cars_env, complaints_env, monkeypatch):
    scores = []
    original = _QueryPair.estimated_selectivity

    def recording(pair):
        score = original(pair)
        scores.append(score)
        return score

    monkeypatch.setattr(_QueryPair, "estimated_selectivity", recording)
    processor = JoinProcessor(
        cars_env.web_source(),
        complaints_env.web_source(),
        cars_env.knowledge,
        complaints_env.knowledge,
        JoinConfig(max_concurrency=1),
    )
    cycle = join_workload(
        cars_env, complaints_env, "model", "model", "general_component", 8, seed=7
    )
    for join in cycle:
        processor.query(join)
    digest = hashlib.sha256(
        "\n".join(score.hex() for score in scores).encode("utf-8")
    ).hexdigest()
    assert (len(scores), digest) == (PAIRS, PAIR_ESTSELS)
