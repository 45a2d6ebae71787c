"""Result objects returned by the QPIAD mediator.

The mediator returns answers in two bands, mirroring the paper:

1. **certain answers** — the base result set, exactly matching the query;
2. **ranked possible answers** — tuples with (at most one) NULL on a
   constrained attribute, each carrying a *confidence* equal to the
   estimated precision of the rewritten query that retrieved it, plus an
   explanation (the AFD used) per Section 6.1.

The mediator never returns tuples with two or more NULLs over the
constrained attributes: a web form cannot bind NULL, so no call can ask
for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.engine import FailureKind
from repro.mining.afd import Afd
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row

__all__ = ["RankedAnswer", "QueryFailure", "RetrievalStats", "QueryResult"]


@dataclass(frozen=True)
class RankedAnswer:
    """One possible answer with its relevance assessment.

    Attributes
    ----------
    row:
        The tuple as returned by the source.
    confidence:
        Estimated probability that the missing value matches the original
        query — the precision of the retrieving rewritten query.
    retrieved_by:
        The rewritten query that fetched this tuple.
    target_attribute:
        The constrained attribute whose value is missing in :attr:`row`.
    explanation:
        The AFD used for the density assessment, if any (Section 6.1's
        "explain" feature).
    """

    row: Row
    confidence: float
    retrieved_by: SelectionQuery
    target_attribute: str
    explanation: Afd | None = None

    def explain(self) -> str:
        """Human-readable justification of the confidence."""
        if self.explanation is None:
            return (
                f"confidence {self.confidence:.3f} for missing "
                f"{self.target_attribute!r} (no AFD; classifier over all attributes)"
            )
        return (
            f"confidence {self.confidence:.3f}: missing {self.target_attribute!r} "
            f"assessed via AFD {self.explanation}"
        )


@dataclass(frozen=True)
class QueryFailure:
    """One retrieval step the mediator absorbed instead of aborting.

    Attributes
    ----------
    query:
        The planned query that failed.
    kind:
        ``"source-unavailable"``, ``"budget-exhausted"`` or
        ``"admission-rejected"``.
    message:
        The underlying error text, for logs and reports.
    """

    # Aliases of the engine's failure kinds — the engine is the one place
    # that decides what counts as which failure.
    SOURCE_UNAVAILABLE = FailureKind.SOURCE_UNAVAILABLE
    BUDGET_EXHAUSTED = FailureKind.BUDGET_EXHAUSTED
    ADMISSION_REJECTED = FailureKind.ADMISSION_REJECTED

    query: SelectionQuery
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] at {self.query}: {self.message}"


@dataclass
class RetrievalStats:
    """Cost accounting for one mediated query.

    ``queries_issued`` counts every call the mediator put on the wire,
    *whatever its outcome* — answered, rejected, failed transiently, or
    charged-then-lost — so it matches the source's own access log (the
    chaos suite asserts exactly this under fault injection).
    ``rewritten_issued`` counts only rewritten queries that returned a
    result; ``rewritten_skipped`` counts rewritings dropped at plan time
    (inexpressible through the source's interface, or with an estimated
    precision below ``min_confidence``) that therefore cost nothing.
    """

    queries_issued: int = 0
    tuples_retrieved: int = 0
    rewritten_generated: int = 0
    rewritten_issued: int = 0
    rewritten_skipped: int = 0
    duplicates_discarded: int = 0
    failures: list[QueryFailure] = field(default_factory=list)

    def record_failure(
        self, query: SelectionQuery, kind: str, message: str
    ) -> QueryFailure:
        failure = QueryFailure(query=query, kind=kind, message=message)
        self.failures.append(failure)
        return failure


@dataclass
class QueryResult:
    """Everything QPIAD returns for one selection query.

    :attr:`degraded` distinguishes *complete* answers from *best-effort*
    ones: it is set whenever the mediator skipped part of its retrieval
    plan (a rewritten query failed or was load-shed, the source budget ran
    out) instead of aborting.  The certain answers are always complete —
    a failed base query propagates — but a degraded result may be missing
    possible answers; :attr:`RetrievalStats.failures` records exactly what
    was lost and why.

    :attr:`unranked` is always empty.  It held tuples with two or more NULLs
    on constrained attributes, which no call can fetch from a source that
    cannot bind NULL; it stays because the benchmark's answer digests
    (``perfbench/workloads.py``) hash it.
    """

    query: SelectionQuery
    certain: Relation
    ranked: list[RankedAnswer] = field(default_factory=list)
    unranked: list[Row] = field(default_factory=list)
    stats: RetrievalStats = field(default_factory=RetrievalStats)
    degraded: bool = False

    def top(self, count: int) -> list[RankedAnswer]:
        """The *count* highest-confidence ranked answers."""
        return self.ranked[:count]

    def __iter__(self) -> Iterator[RankedAnswer]:
        return iter(self.ranked)

    def __repr__(self) -> str:
        suffix = ", degraded" if self.degraded else ""
        return (
            f"QueryResult({self.query!r}: {len(self.certain)} certain, "
            f"{len(self.ranked)} ranked possible, {len(self.unranked)} unranked"
            f"{suffix})"
        )
