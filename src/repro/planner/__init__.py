"""The unified rewrite-planning pipeline.

Everything between a user query and the :class:`~repro.engine.RetrievalPlan`
the engine executes lives here: composable rewrite generators, the shared
F-measure ranker, the :class:`QueryPlanner` facade, content fingerprints,
and the knowledge-versioned :class:`PlanCache`.  See ``docs/planner.md``.
"""

from repro.planner.cache import PlanCache
from repro.planner.fingerprint import (
    knowledge_fingerprint,
    query_fingerprint,
    relation_fingerprint,
    source_token,
    stable_digest,
)
from repro.planner.generators import (
    AfdRewriteGenerator,
    CorrelationRewriteGenerator,
    RelaxationGenerator,
    RewriteGenerator,
    attribute_influence,
)
from repro.planner.planner import (
    AggregatePlan,
    PlannerConfig,
    QueryPlanner,
    SelectionPlan,
    baseline_plan,
)
from repro.planner.ranker import Ranker, f_measure

__all__ = [
    "AfdRewriteGenerator",
    "AggregatePlan",
    "CorrelationRewriteGenerator",
    "PlanCache",
    "PlannerConfig",
    "QueryPlanner",
    "Ranker",
    "RelaxationGenerator",
    "RewriteGenerator",
    "SelectionPlan",
    "attribute_influence",
    "baseline_plan",
    "f_measure",
    "knowledge_fingerprint",
    "query_fingerprint",
    "relation_fingerprint",
    "source_token",
    "stable_digest",
]
