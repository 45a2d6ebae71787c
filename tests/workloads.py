"""Workload builders only the tests use (Section 6's query generation).

The paper "randomly formulate[s] single attribute and multi attribute
selection queries" and, for aggregates, takes "distinct combinations of
values" of attribute subsets:

* :func:`multi_attribute_workload` — conjunctive queries sampled from real
  tuples (so they are satisfiable);
* :func:`aggregate_workload` — the §6.6 protocol over attribute subsets.

The builders the programs run (``selection_workload``, ``join_workload``)
stay in :mod:`repro.evaluation`.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import QpiadError
from repro.evaluation.harness import Environment
from repro.query.predicates import Equals
from repro.query.query import AggregateFunction, AggregateQuery, SelectionQuery
from repro.relational.values import is_null

__all__ = ["multi_attribute_workload", "aggregate_workload"]


def multi_attribute_workload(
    env: Environment,
    attributes: Sequence[str],
    count: int,
    seed: int = 17,
    min_relevant: int = 1,
) -> list[SelectionQuery]:
    """Conjunctive equality queries over *attributes*, sampled from tuples.

    Each query binds every listed attribute to the values of a randomly
    drawn complete-on-those-attributes test tuple, guaranteeing the query
    is satisfiable; queries without at least *min_relevant* relevant
    possible answers are discarded.
    """
    if len(attributes) < 2:
        raise QpiadError("a multi-attribute workload needs at least two attributes")
    rng = random.Random(seed)
    combos = [
        combo
        for combo in env.test.project(list(attributes), distinct=True).rows
        if not any(is_null(value) for value in combo)
    ]
    rng.shuffle(combos)
    queries: list[SelectionQuery] = []
    for combo in combos:
        query = SelectionQuery.conjunction(
            [Equals(name, value) for name, value in zip(attributes, combo)]
        )
        if env.total_relevant(query) >= min_relevant:
            queries.append(query)
        if len(queries) >= count:
            break
    if not queries:
        raise QpiadError(
            f"no conjunctive query over {tuple(attributes)} has {min_relevant}+ "
            "relevant possible answers"
        )
    return queries


def aggregate_workload(
    env: Environment,
    function: AggregateFunction,
    attribute: str = "*",
    subsets: Sequence[Sequence[str]] = (),
    combos_per_subset: int = 6,
    seed: int = 19,
) -> list[AggregateQuery]:
    """The §6.6 protocol: one aggregate query per distinct value combination
    of each attribute subset (drawn from the training sample)."""
    if not subsets:
        raise QpiadError("aggregate_workload needs at least one attribute subset")
    rng = random.Random(seed)
    queries: list[AggregateQuery] = []
    for subset in subsets:
        combos = [
            combo
            for combo in env.train.project(list(subset), distinct=True).rows
            if not any(is_null(value) for value in combo)
        ]
        rng.shuffle(combos)
        for combo in combos[:combos_per_subset]:
            selection = SelectionQuery.conjunction(
                [Equals(name, value) for name, value in zip(subset, combo)]
            )
            queries.append(AggregateQuery(selection, function, attribute))
    return queries
