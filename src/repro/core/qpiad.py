"""The QPIAD mediator for selection queries (Sections 3, 4.1, 4.2).

:class:`QpiadMediator` wires the pieces together exactly as Figure 1 shows:
the query reformulator issues the original query for the base result set,
generates rewritten queries from mined AFDs, orders them by F-measure,
issues up to K of them in that order (never one whose estimated
selectivity is zero), post-filters, and returns certain answers plus
ranked relevant possible answers.

Since the engine refactor the mediator only *plans* and *post-filters*;
issuing, cost accounting, failure handling and telemetry spans live in
:class:`~repro.engine.RetrievalEngine`, shared by every mediator.  This
mediator's engine degrades: a failed rewritten query is recorded and
skipped, and an exhausted source budget ends the plan with the answers
gathered so far.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import QpiadError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, SelectionPlan
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.resilience.scheduler import SourceScheduler
from repro.sources.surface import Source
from repro.telemetry import SpanKind, Telemetry

__all__ = ["QpiadConfig", "QpiadMediator"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QpiadConfig:
    """Mediator tuning knobs (Section 4.1's α and K, plus extras).

    Parameters
    ----------
    alpha:
        F-measure weight: 0 orders purely by precision; 1 weighs precision
        and recall equally (paper Figure 5 sweeps this).
    k:
        Maximum number of rewritten queries issued per user query
        (``None`` = unlimited).  Models source rate limits.
    classifier_method:
        Which Table-3 classifier variant assesses value distributions.
    min_confidence:
        Drop ranked answers whose confidence falls below this threshold
        (Fig. 9's user-side filter); 0 keeps everything.
    max_concurrency:
        How many rewritten queries may be in flight at once.  ``None``
        (the default) lets the engine choose per query: :meth:`query`
        issues the planned rewritten queries together when the base query's
        call spent most of its time waiting on the source and nothing can
        end the plan early or shed part of it (no ``query_budget``
        declared by the source, no bounded admission queue on the
        scheduler), up to the scheduler's ``max_concurrent``; otherwise,
        and always in :meth:`iter_possible`, it issues them one at a
        time, exactly as the paper's loop.  An int pins the width: ``1`` is
        always serial, a higher value always runs the thread-pool executor
        (``qpiad query --concurrency N`` on the CLI).  Outcomes merge in
        plan order at any width, so answers, order, confidences and
        billing are identical on a healthy source.
    """

    alpha: float = 0.0
    k: int | None = 10
    classifier_method: str | None = None
    min_confidence: float = 0.0
    max_concurrency: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise QpiadError(f"alpha must be non-negative, got {self.alpha}")
        if self.k is not None and self.k < 0:
            raise QpiadError(f"k must be non-negative, got {self.k}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise QpiadError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise QpiadError(
                f"max_concurrency must be at least 1, got {self.max_concurrency}"
            )


class QpiadMediator:
    """Mediates selection queries over one incomplete autonomous source.

    Parameters
    ----------
    source:
        The autonomous database (accessed only through its query interface).
    knowledge:
        Statistics mined off-line from a sample of *source* (or of a
        correlated source — see :mod:`repro.core.correlated`), as a bare
        :class:`~repro.mining.KnowledgeBase` or a
        :class:`~repro.mining.KnowledgeStore`.  The mediator reads through
        a store and snapshots the current generation once per retrieval,
        so a :class:`~repro.mining.KnowledgeRefresher` installing a new
        generation mid-stream never mixes statistics within one query.
    config:
        Mediation parameters.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook.  When given,
        every retrieval becomes a span tree (one child span per source
        call, failed calls included) and the registry's ``mediator.*``
        counters track issuance and transfer volume; when ``None`` (the
        default) each emit site costs a single ``None`` check.
    scheduler:
        Optional :class:`~repro.resilience.SourceScheduler` this
        mediator's source calls are routed through.  When ``None`` (the
        default) the engine falls back to the process-wide scheduler
        installed via :func:`repro.resilience.install_scheduler`, if
        any; with neither, calls go straight to the source stack as
        before.
    plan_cache:
        Optional :class:`~repro.planner.PlanCache` shared across
        retrievals (and, if desired, across mediators).  With a cache,
        repeat plannings over unchanged knowledge and an identical base
        set are served from memory; without one (the default) the planner
        runs the plain pipeline with zero caching overhead.
    """

    def __init__(
        self,
        source: Source,
        knowledge: "KnowledgeBase | KnowledgeStore",
        config: QpiadConfig | None = None,
        telemetry: Telemetry | None = None,
        plan_cache: PlanCache | None = None,
        scheduler: "SourceScheduler | None" = None,
    ):
        self.source = source
        self._store = as_store(knowledge)
        self.config = config or QpiadConfig()
        self._telemetry = telemetry
        self._scheduler = scheduler
        self.planner = QueryPlanner(
            self._store,
            PlannerConfig(
                alpha=self.config.alpha,
                k=self.config.k,
                classifier_method=self.config.classifier_method,
                min_confidence=self.config.min_confidence,
            ),
            cache=plan_cache,
            telemetry=telemetry,
        )
        #: The most recent :class:`~repro.planner.SelectionPlan`, kept for
        #: diagnostics (``qpiad query --explain`` renders it).
        self.last_plan: SelectionPlan | None = None

    def _engine(self, stats: RetrievalStats) -> RetrievalEngine:
        """A fresh, degrading engine for one retrieval over this mediator's
        source."""
        return RetrievalEngine(
            self.source,
            stats,
            max_concurrency=self.config.max_concurrency,
            telemetry=self._telemetry,
            scheduler=self._scheduler,
        )

    def query(self, query: SelectionQuery) -> QueryResult:
        """Process *query*: certain answers plus ranked possible answers.

        The base query's failure always propagates; failures of individual
        rewritten queries degrade the result instead of aborting it (see
        :attr:`QueryResult.degraded`).
        """
        telemetry = self._telemetry
        if telemetry is None:
            return self._mediate(query)
        # The root span's name and attributes are formatted only when traced.
        with telemetry.span(
            f"qpiad.query {query}", SpanKind.RETRIEVAL, query=str(query)
        ) as root:
            result = self._mediate(query)
            root.set(
                certain=len(result.certain),
                ranked=len(result.ranked),
                queries_issued=result.stats.queries_issued,
                degraded=result.degraded,
            )
        telemetry.count("mediator.retrievals")
        if result.degraded:
            telemetry.count("mediator.retrievals_degraded")
        telemetry.count("mediator.answers_certain", len(result.certain))
        telemetry.count("mediator.answers_ranked", len(result.ranked))
        return result

    def _plan_rewritten(
        self,
        query: SelectionQuery,
        base_set: Relation,
        stats: RetrievalStats,
        knowledge: KnowledgeBase,
    ) -> list[PlannedQuery]:
        """The rewritten-query plan, via the shared :class:`QueryPlanner`.

        Gating happens at plan time — inside the planner — so an
        inexpressible, below-threshold or zero-selectivity rewriting never
        spends source budget: it lands in ``stats.rewritten_skipped``
        instead of being retrieved and discarded.  The skip tallies travel
        *with* the plan, which keeps stats and telemetry identical whether
        the plan was freshly built or served from the cache.
        """
        plan = self.planner.plan_selection(
            query, base_set, source=self.source, knowledge=knowledge
        )
        self.last_plan = plan
        stats.rewritten_generated = plan.generated
        stats.rewritten_skipped += plan.skipped
        telemetry = self._telemetry
        if telemetry is not None:
            if plan.skipped_unanswerable:
                telemetry.count(
                    "mediator.rewritten_unanswerable", plan.skipped_unanswerable
                )
            if plan.skipped_below_confidence:
                telemetry.count(
                    "mediator.rewritten_below_confidence",
                    plan.skipped_below_confidence,
                )
            if plan.skipped_zero_selectivity:
                telemetry.count(
                    "mediator.rewritten_zero_selectivity",
                    plan.skipped_zero_selectivity,
                )
        logger.debug(
            "query %r: %d certain answers, %d rewritten candidates, issuing %d",
            query, len(base_set), plan.generated, len(plan.steps),
        )
        return list(plan.steps)

    def _mediate(self, query: SelectionQuery) -> QueryResult:
        # One generation snapshot serves the whole retrieval: planning reads
        # one set of statistics even if a refresh installs a new generation
        # while a call is on the wire.
        knowledge = self._store.current
        stats = RetrievalStats()
        engine = self._engine(stats)
        base_set = engine.run_base(
            PlannedQuery(query=query, kind=QueryKind.BASE, rank=0)
        )
        result = QueryResult(query=query, certain=base_set, stats=stats)
        steps = self._plan_rewritten(query, base_set, stats, knowledge)
        # Every outcome is consumed, so an unpinned engine may overlap the
        # plan's calls when the base call showed the source waits.
        result.ranked.extend(
            self._possible(engine, steps, set(base_set), stats, drained=True)
        )
        result.degraded = engine.degraded
        return result

    def iter_possible(
        self, query: SelectionQuery, stats: RetrievalStats | None = None
    ) -> Iterator[RankedAnswer]:
        """Lazily yield ranked possible answers, issuing queries on demand.

        The base result set is retrieved eagerly (its tuples seed the
        rewriting), but rewritten queries are only issued as the caller
        consumes the stream — a user who stops after the first few answers
        never spends the rest of the source's query budget.  Answers arrive
        in the same order :meth:`query` would rank them.  (With
        ``config.max_concurrency`` pinned above 1 the engine prefetches a
        bounded window of queries ahead of consumption; otherwise the
        stream keeps the strict one-call-per-answer-pulled economy.)

        Degradation matches :meth:`query` — transient failures of single
        rewritten queries are skipped, budget exhaustion ends the stream.
        Pass a *stats* object to collect :meth:`query`'s cost accounting
        and failure log: issuance is recorded before each call, so spent
        budget is counted even when the call fails, and every absorbed
        failure lands in ``stats.failures``.  Drained, the stream leaves
        *stats* equal to the ``result.stats`` of :meth:`query`.
        """
        knowledge = self._store.current
        stats = RetrievalStats() if stats is None else stats
        engine = self._engine(stats)
        base_set = engine.run_base(
            PlannedQuery(query=query, kind=QueryKind.BASE, rank=0)
        )
        steps = self._plan_rewritten(query, base_set, stats, knowledge)
        yield from self._possible(engine, steps, set(base_set), stats)

    def _possible(
        self,
        engine: RetrievalEngine,
        steps: list[PlannedQuery],
        seen_rows: set[Row],
        stats: RetrievalStats,
        *,
        drained: bool = False,
    ) -> Iterator[RankedAnswer]:
        """Issue the rewritten *steps* and post-filter their rows (step 2e).

        Keeps only tuples whose target attribute is actually missing — the
        rest are certain answers the base set already delivered — and
        counts a row already in *seen_rows* as a discarded duplicate.
        *drained* is passed on to :meth:`RetrievalEngine.stream`.
        """
        schema = self.source.schema
        for step, retrieved in engine.stream(steps, drained=drained):
            assert step.target_attribute is not None
            target_index = schema.index_of(step.target_attribute)
            for row in retrieved:
                if not is_null(row[target_index]):
                    continue
                if row in seen_rows:
                    stats.duplicates_discarded += 1
                    continue
                seen_rows.add(row)
                yield RankedAnswer(
                    row=row,
                    confidence=step.estimated_precision,
                    retrieved_by=step.query,
                    target_attribute=step.target_attribute,
                    explanation=step.explanation,
                )

