"""Retrieving answers from sources that do not support the query attribute
(Section 4.3).

A mediator's global schema often contains attributes some sources lack
(Yahoo! Autos has no ``Body Style``).  A query constraining such an
attribute cannot even be *asked* of that source.  QPIAD's move: find a
*correlated source* that (i) supports the attribute, (ii) has an AFD with
the attribute on the right-hand side, and (iii) whose determining set the
deficient source does support.  The base set and statistics come from the
correlated source; the rewritten queries go to the deficient one.

Answers retrieved this way are inherently possible answers — the deficient
source cannot report the attribute at all — ranked by the correlated
source's classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.engine import PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import QpiadError, RewritingError, UnsupportedAttributeError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlannerConfig, QueryPlanner
from repro.query.query import SelectionQuery
from repro.relational.relation import Row
from repro.sources.registry import SourceRegistry
from repro.sources.surface import Source

__all__ = ["CorrelatedSourceMediator", "find_correlated_source"]


def find_correlated_source(
    attribute: str,
    deficient: Source,
    registry: SourceRegistry,
    knowledge_bases: dict[str, KnowledgeBase],
) -> tuple[Source, KnowledgeBase] | None:
    """The best correlated source for *attribute* per Definition 4.

    Candidates must support the attribute, have a (pruned) AFD with it on
    the right-hand side whose determining set the deficient source
    supports; among them the one with the highest-confidence AFD wins.
    """
    best: tuple[float, Source, KnowledgeBase] | None = None
    for source in registry.supporting(attribute):
        if source.name == deficient.name:
            continue
        knowledge = knowledge_bases.get(source.name)
        if knowledge is None:
            continue
        for afd in knowledge.afds_for(attribute):
            if all(
                deficient.supports(name) and deficient.capabilities.can_bind(name)
                for name in afd.determining
            ):
                if best is None or afd.confidence > best[0]:
                    best = (afd.confidence, source, knowledge)
                break  # afds_for is best-first; first feasible one is the best here
    if best is None:
        return None
    return best[1], best[2]


@dataclass(frozen=True)
class CorrelatedConfig:
    """α/K parameters for cross-source retrieval (same semantics as QPIAD)."""

    alpha: float = 0.0
    k: int | None = 10
    classifier_method: str | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise QpiadError(f"alpha must be non-negative, got {self.alpha}")
        if self.k is not None and self.k < 0:
            raise QpiadError(f"k must be non-negative, got {self.k}")


class CorrelatedSourceMediator:
    """Answers queries on attributes a target source does not support.

    Parameters
    ----------
    registry:
        All sources under the mediator's global schema.
    knowledge_bases:
        Per-source mined statistics, keyed by source name (only sources
        that support the query attribute need one).
    config:
        Retrieval parameters.
    """

    def __init__(
        self,
        registry: SourceRegistry,
        knowledge_bases: "dict[str, KnowledgeBase | KnowledgeStore]",
        config: CorrelatedConfig | None = None,
    ):
        self.registry = registry
        self._stores = {
            name: as_store(knowledge)
            for name, knowledge in knowledge_bases.items()
        }
        self.config = config or CorrelatedConfig()

    @property
    def knowledge_bases(self) -> "dict[str, KnowledgeBase]":
        """Snapshots of every source's current knowledge generation."""
        return {name: store.current for name, store in self._stores.items()}

    def _planner(self, knowledge: KnowledgeBase) -> QueryPlanner:
        return QueryPlanner(
            knowledge,
            PlannerConfig(
                alpha=self.config.alpha,
                k=self.config.k,
                classifier_method=self.config.classifier_method,
            ),
        )

    def query(self, query: SelectionQuery, target: Source) -> QueryResult:
        """Retrieve relevant possible answers for *query* from *target*.

        *query* must constrain exactly the attributes *target* lacks plus
        (optionally) attributes it supports; the unsupported ones are
        handled via the correlated source, supported conjuncts are passed
        straight through to *target*.
        """
        unsupported = [
            name for name in query.constrained_attributes if not target.supports(name)
        ]
        if not unsupported:
            raise UnsupportedAttributeError(
                f"source {target.name!r} supports every constrained attribute; "
                "use the regular QPIAD mediator instead"
            )
        if len(unsupported) > 1:
            raise UnsupportedAttributeError(
                "correlated-source retrieval handles one unsupported attribute "
                f"per query; got {unsupported}"
            )
        attribute = unsupported[0]

        # One coherent set of generation snapshots serves the whole query:
        # source selection and planning read the same statistics even if a
        # refresh swaps a store mid-retrieval.
        found = find_correlated_source(
            attribute, target, self.registry, self.knowledge_bases
        )
        if found is None:
            raise RewritingError(
                f"no correlated source provides an AFD for {attribute!r} whose "
                f"determining set {target.name!r} supports"
            )
        correlated, knowledge = found

        stats = RetrievalStats()
        # All engine-side failure handling is strict here: §4.3 retrieval
        # predates graceful degradation, so any source error propagates to
        # the caller.  The calls go out one at a time.
        engine = RetrievalEngine(target, stats, strict=True, max_concurrency=1)
        # Step 1 (modified): base set from the correlated source.  The
        # engine counts issuance before the call, matching QpiadMediator's
        # accounting.
        base_set = engine.run_base(
            PlannedQuery(
                query=query,
                kind=QueryKind.BASE,
                rank=0,
                source=correlated,
            )
        )

        from repro.relational.relation import Relation

        result = QueryResult(
            query=query,
            # An empty placeholder result, not base data: the target source
            # cannot answer the query at all (that is the point of §4.3).
            certain=Relation(target.schema, []),  # qpiadlint: disable=raw-relation-access
            stats=stats,
        )

        # The planner gates on what the deficient source can express
        # *before* ranking (§4.3's usable-rewritings filter), forces the
        # unsupported attribute as every step's target, and caches under
        # the target's capability token.  Cached steps carry no source, so
        # the target is attached here at execution time.
        plan = self._planner(knowledge).plan_correlated(
            query, base_set, attribute, target
        )
        stats.rewritten_generated = plan.generated
        steps = [replace(step, source=target) for step in plan.steps]

        seen: set[Row] = set()
        for step, retrieved in engine.stream(steps):
            for row in retrieved:
                # No post-filter on the target attribute: the deficient
                # source does not return it at all, so every tuple is a
                # possible answer.
                if row in seen:
                    stats.duplicates_discarded += 1
                    continue
                seen.add(row)
                result.ranked.append(
                    RankedAnswer(
                        row=row,
                        confidence=step.estimated_precision,
                        retrieved_by=step.query,
                        target_attribute=attribute,
                        explanation=step.explanation,
                    )
                )
        return result
