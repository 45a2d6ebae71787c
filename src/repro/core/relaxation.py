"""AFD-guided query relaxation (the paper's "ongoing work" direction).

Section 7 points at the dual problem of incompleteness: *query imprecision* —
an over-constrained query returns too few answers even over complete data.
The QUIC follow-up (Kambhampati et al., CIDR'07) handles both with the same
mined statistics.  This module implements the relaxation half:

* conjuncts are relaxed in order of the constrained attribute's *influence*
  — the degree to which it determines other attributes according to the
  mined AFDs (an attribute that determines much carries more of the query's
  intent, so it is relaxed last);
* relaxed queries drop one conjunct at a time (then two, ...) until enough
  answers accumulate;
* answers are ranked by weighted similarity to the original query — the
  influence-weighted fraction of original conjuncts they satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.results import RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import QpiadError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore
from repro.planner import PlanCache, QueryPlanner
from repro.query.predicates import Predicate
from repro.query.query import SelectionQuery
from repro.relational.relation import Row
from repro.relational.schema import Schema
from repro.sources.surface import Source
from repro.telemetry import Telemetry

__all__ = ["RelaxedAnswer", "RelaxationPlan", "QueryRelaxer"]


@dataclass(frozen=True)
class RelaxedAnswer:
    """A tuple retrieved by a relaxed query, with its similarity score."""

    row: Row
    similarity: float
    satisfied: tuple[str, ...]
    violated: tuple[str, ...]
    retrieved_by: SelectionQuery


@dataclass(frozen=True)
class RelaxationPlan:
    """The ordered relaxed queries the relaxer would issue."""

    original: SelectionQuery
    queries: tuple[SelectionQuery, ...]
    influence: dict[str, float]


class QueryRelaxer:
    """Relaxes over-constrained queries using mined attribute influence.

    Parameters
    ----------
    source / knowledge:
        The autonomous source and its mined statistics.
    max_dropped:
        Never drop more than this many conjuncts (default: all but one);
        ``0`` returns exact answers only.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook; every relaxed
        probe becomes a ``relaxed-query`` span and plan builds a ``plan``
        span, matching the other pipelines.
    plan_cache:
        Optional shared :class:`~repro.planner.PlanCache`; relaxation
        plans depend only on the query and the mined AFDs, so they cache
        under the knowledge fingerprint like every other plan.
    """

    def __init__(
        self,
        source: Source,
        knowledge: "KnowledgeBase | KnowledgeStore",
        max_dropped: int | None = None,
        telemetry: Telemetry | None = None,
        plan_cache: PlanCache | None = None,
    ):
        if max_dropped is not None and max_dropped < 0:
            raise QpiadError(f"max_dropped must be non-negative, got {max_dropped}")
        self.source = source
        self.max_dropped = max_dropped
        self._telemetry = telemetry
        self.planner = QueryPlanner(
            knowledge, cache=plan_cache, telemetry=telemetry
        )

    # ------------------------------------------------------------------

    def plan(self, query: SelectionQuery) -> RelaxationPlan:
        """The relaxed queries, least-painful first.

        Queries dropping fewer conjuncts come first; among equal counts,
        the dropped set with the smallest total influence comes first.
        (Built by the shared planner; see
        :class:`~repro.planner.RelaxationGenerator`.)
        """
        plan: RelaxationPlan = self.planner.plan_relaxation(query, self.max_dropped)
        return plan

    def query(self, query: SelectionQuery, target_count: int = 10) -> list[RelaxedAnswer]:
        """Retrieve at least *target_count* answers, relaxing as needed.

        Exact answers (similarity 1.0) come first; relaxed answers are
        ranked by influence-weighted similarity.  Stops issuing relaxed
        queries once the target is met.
        """
        if target_count < 1:
            raise QpiadError(f"target_count must be positive, got {target_count}")
        plan = self.plan(query)
        schema = self.source.schema
        stats = RetrievalStats()
        engine = RetrievalEngine(
            self.source,
            stats,
            strict=True,
            max_concurrency=1,
            telemetry=self._telemetry,
        )

        collected: dict[Row, RelaxedAnswer] = {}
        exact = engine.run_base(
            PlannedQuery(query=query, kind=QueryKind.BASE, rank=0)
        )
        for row in exact:
            collected[row] = RelaxedAnswer(
                row=row,
                similarity=1.0,
                satisfied=query.constrained_attributes,
                violated=(),
                retrieved_by=query,
            )

        total_influence = sum(plan.influence.values()) or 1.0
        steps = [
            PlannedQuery(query=relaxed_query, kind=QueryKind.RELAXED, rank=rank)
            for rank, relaxed_query in enumerate(plan.queries)
        ]
        # The serial executor issues lazily, so guarding entry and breaking
        # as soon as the target is met preserves the historical economy:
        # a relaxed query is only put on the wire while answers are short.
        if len(collected) < target_count:
            for step, retrieved in engine.stream(steps):
                for row in retrieved:
                    if row in collected:
                        continue
                    satisfied, violated = self._split(query.conjuncts, row, schema)
                    weight = sum(plan.influence[a] for a in satisfied) / total_influence
                    plain = len(satisfied) / len(query.constrained_attributes)
                    # Blend structural and influence-weighted similarity so
                    # zero-influence attributes still count for something.
                    similarity = 0.5 * weight + 0.5 * plain
                    collected[row] = RelaxedAnswer(
                        row=row,
                        similarity=similarity,
                        satisfied=satisfied,
                        violated=violated,
                        retrieved_by=step.query,
                    )
                if len(collected) >= target_count:
                    break

        answers = sorted(collected.values(), key=lambda a: -a.similarity)
        return answers

    # ------------------------------------------------------------------

    def _split(
        self, conjuncts: Sequence[Predicate], row: Row, schema: Schema
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        satisfied: list[str] = []
        violated: list[str] = []
        for conjunct in conjuncts:
            target = satisfied if conjunct.matches(row, schema) else violated
            target.extend(conjunct.attributes())
        return tuple(dict.fromkeys(satisfied)), tuple(dict.fromkeys(violated))
