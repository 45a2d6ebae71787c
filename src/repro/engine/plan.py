"""Retrieval plans: the *what* of a mediated retrieval.

A plan is an ordered sequence of :class:`PlannedQuery` steps.  Order is
semantic — it is the precision order of Section 4.1's F-measure ranking,
and every executor merges outcomes back in exactly this order, which is
what makes concurrent execution indistinguishable from serial execution
on a healthy source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.query.query import SelectionQuery

if TYPE_CHECKING:
    from repro.sources.surface import Source

__all__ = ["PlannedQuery", "QueryKind", "RetrievalPlan"]


class QueryKind:
    """The ways a retrieval touches a source: Figure 1's base and rewritten
    queries, the relaxation extension of Section 7, and the baselines'
    counterfactual NULL-binding fetch (§6.2)."""

    BASE = "base"
    REWRITTEN = "rewritten"
    RELAXED = "relaxed"
    NULL_BINDING = "null-binding"

    ALL = (BASE, REWRITTEN, RELAXED, NULL_BINDING)


@dataclass(frozen=True)
class PlannedQuery:
    """One step of a retrieval plan.

    Parameters
    ----------
    query:
        The selection query to put on the wire.
    kind:
        One of :class:`QueryKind` — decides how the engine issues it
        (``execute_null_binding`` for :attr:`QueryKind.NULL_BINDING`,
        ``execute`` otherwise) and which span kind it gets.
    rank:
        Position in the plan.  Outcomes are always merged in rank order.
    estimated_precision:
        The rewritten query's estimated precision (Section 4.1); doubles
        as the confidence of every answer it retrieves.  1.0 for base
        queries — their answers are certain.
    estimated_recall:
        The rewriting's estimated recall (selectivity-based); carried for
        ranking diagnostics, not used during execution.
    target_attribute:
        For rewritten steps, the attribute whose constraint was replaced —
        the post-filter keeps only rows NULL on it.
    explanation:
        The mined AFD that justified this rewriting (opaque to the
        engine; threaded through to :class:`~repro.core.results.RankedAnswer`).
    source:
        Optional per-step source override for plans spanning several
        sources (joins, correlated mediation).  ``None`` uses the
        engine's default source.
    max_nulls:
        For :attr:`QueryKind.NULL_BINDING` steps, the most NULLs over the
        constrained attributes a returned row may have, handed to
        ``execute_null_binding`` (``None`` = no bound).
    """

    query: SelectionQuery
    kind: str = QueryKind.REWRITTEN
    rank: int = 0
    estimated_precision: float = 1.0
    estimated_recall: float = 0.0
    target_attribute: str | None = None
    explanation: Any = None
    source: Source | None = None
    max_nulls: int | None = None

    def span_name(self) -> str:
        return f"{self.kind} {self.query}"


@dataclass(frozen=True)
class RetrievalPlan:
    """An ordered, immutable sequence of planned queries."""

    steps: tuple[PlannedQuery, ...] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[PlannedQuery]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)
