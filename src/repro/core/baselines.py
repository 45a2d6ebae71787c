"""The paper's comparison baselines: AllReturned and AllRanked (Section 1, 6.2).

Both baselines require the (counterfactual) ability to bind NULL values in
queries, which real web databases lack — that is exactly the gap QPIAD's
rewriting closes.  They are implemented against sources configured with
``allows_null_binding=True`` so the paper's quality/efficiency comparisons
can be reproduced:

* **AllReturned** — return the certain answers plus *every* tuple with a
  NULL on a constrained attribute, unranked (high recall, poor precision).
* **AllRanked** — retrieve the same set, then rank the possible answers by
  the classifier's assessed relevance (better precision, but it must drag
  the entire NULL-bearing population over the network first — Fig. 8).
"""

from __future__ import annotations

from typing import Callable

from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.core.rewriting import row_probabilities
from repro.engine import RetrievalEngine
from repro.mining.knowledge import KnowledgeBase
from repro.planner import baseline_plan
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.sources.surface import Source

__all__ = ["all_returned", "all_ranked"]


def _retrieve(
    source: Source,
    query: SelectionQuery,
    max_nulls: int | None,
) -> tuple[Relation, Relation, RetrievalStats]:
    """Run the two-step counterfactual plan: certain set, then NULL fetch.

    Both calls go through a strict engine, so issuance is billed before
    each call, exactly as for the mediated pipelines.  A source that
    cannot bind NULL raises :class:`~repro.errors.NullBindingError`,
    which no engine absorbs, so the baseline fails loudly — that
    incapability is the entire point of the comparison.
    """
    stats = RetrievalStats()
    engine = RetrievalEngine(source, stats, strict=True, max_concurrency=1)
    outcomes: dict[int, Relation] = {}
    for step, retrieved in engine.stream(baseline_plan(query, max_nulls=max_nulls)):
        outcomes[step.rank] = retrieved
    return outcomes[0], outcomes[1], stats


def all_returned(
    source: Source,
    query: SelectionQuery,
    max_nulls: int | None = 1,
) -> QueryResult:
    """The A LL R ETURNED baseline: possible answers in database order.

    Possible answers carry confidence 0 (the baseline does not assess
    relevance); order is whatever the source returns.
    """
    certain, possible, stats = _retrieve(source, query, max_nulls)
    result = QueryResult(query=query, certain=certain, stats=stats)
    null_attr = _single_null_attribute(source, query)
    for row in possible:
        result.ranked.append(
            RankedAnswer(
                row=row,
                confidence=0.0,
                retrieved_by=query,
                target_attribute=null_attr(row),
            )
        )
    return result


def all_ranked(
    source: Source,
    query: SelectionQuery,
    knowledge: KnowledgeBase,
    max_nulls: int | None = 1,
    method: str | None = None,
) -> QueryResult:
    """The A LL R ANKED baseline: retrieve all possible answers, rank each.

    Every NULL-bearing tuple is shipped to the mediator and ranked by the
    classifier probability that its missing values satisfy the query (the
    joint over all of them, see :func:`row_probabilities`) — the per-tuple
    analogue of QPIAD's per-query precision.
    """
    certain, possible, stats = _retrieve(source, query, max_nulls)
    result = QueryResult(query=query, certain=certain, stats=stats)
    null_attr = _single_null_attribute(source, query)
    rows = list(possible)
    confidences = row_probabilities(knowledge, query, source.schema, rows, method)
    answers = [
        RankedAnswer(
            row=row,
            confidence=confidence,
            retrieved_by=query,
            target_attribute=null_attr(row),
        )
        for row, confidence in zip(rows, confidences)
    ]
    answers.sort(key=lambda answer: -answer.confidence)
    result.ranked = answers
    return result


def _single_null_attribute(
    source: Source, query: SelectionQuery
) -> "Callable[[Row], str]":
    """Helper returning the (first) constrained attribute NULL in a row."""
    schema = source.schema
    constrained = query.constrained_attributes

    def pick(row: Row) -> str:
        for name in constrained:
            if is_null(row[schema.index_of(name)]):
                return name
        return constrained[0]

    return pick
