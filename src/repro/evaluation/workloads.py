"""Workload builders for experiments (Section 6's query generation).

The paper "randomly formulate[s] single attribute and multi attribute
selection queries"; its §4.5 joins pair selections over two sources.

* :func:`~repro.evaluation.harness.selection_workload` (in the harness)
  draws single attribute equalities with guaranteed relevance mass;
* :func:`join_workload` draws join queries pairing values observed on
  both sides of the join attribute (perfbench's join-remote cycle).

The multi-attribute and aggregate builders, which only tests use, live in
``tests/workloads.py``.
"""

from __future__ import annotations

import random

from repro.errors import QpiadError
from repro.evaluation.harness import Environment
from repro.query.query import JoinQuery, SelectionQuery
from repro.relational.values import is_null

__all__ = ["join_workload"]


def join_workload(
    left_env: Environment,
    right_env: Environment,
    join_attribute: str,
    left_attribute: str,
    right_attribute: str,
    count: int,
    seed: int = 29,
) -> list[JoinQuery]:
    """Join queries whose per-side constraints co-occur with a shared join
    value, so the certain join is non-empty."""
    rng = random.Random(seed)
    shared = sorted(
        set(left_env.test.distinct_values(join_attribute))
        & set(right_env.test.distinct_values(join_attribute))
    )
    rng.shuffle(shared)
    queries: list[JoinQuery] = []
    for join_value in shared:
        left_rows = [
            row
            for row in left_env.test
            if left_env.test.value(row, join_attribute) == join_value
            and not is_null(left_env.test.value(row, left_attribute))
        ]
        right_rows = [
            row
            for row in right_env.test
            if right_env.test.value(row, join_attribute) == join_value
            and not is_null(right_env.test.value(row, right_attribute))
        ]
        if not left_rows or not right_rows:
            continue
        left_value = left_env.test.value(rng.choice(left_rows), left_attribute)
        right_value = right_env.test.value(rng.choice(right_rows), right_attribute)
        queries.append(
            JoinQuery(
                SelectionQuery.equals(left_attribute, left_value),
                SelectionQuery.equals(right_attribute, right_value),
                join_attribute,
            )
        )
        if len(queries) >= count:
            break
    if not queries:
        raise QpiadError("no join query with a non-empty certain join was found")
    return queries
