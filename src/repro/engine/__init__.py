"""The unified retrieval engine: explicit plans, pluggable execution.

The paper's Figure 1 loop — issue the base query, generate rewritten
queries, order them, issue the top-K, post-filter, merge — used to be
re-implemented by every mediator, each copy separately threading failure
handling, telemetry, and cost accounting.  This package factors the loop
into three explicit pieces:

* :mod:`repro.engine.plan` — *what* to retrieve: :class:`PlannedQuery`
  steps (base / rewritten / relaxed / null-binding, with plan rank and
  estimated precision/recall) collected into a :class:`RetrievalPlan`;
* :mod:`repro.engine.executor` — *how* to run it: a
  :data:`PlanExecutor`, either :class:`SerialExecutor`
  (behaviour-identical to the historical loops) or
  :class:`ConcurrentExecutor` (thread pools, one per source, that issue
  queries in parallel, up to a window per source, but merge outcomes
  deterministically in plan order);
* :mod:`repro.engine.engine` — the :class:`RetrievalEngine` that binds
  them together and owns issuance accounting, telemetry spans, and
  failure handling (a retrieval is ``strict`` or it degrades) in exactly
  one place.  Unless the caller pins a
  width, it picks the executor per retrieval: a drained plan runs on the
  thread pool when the base call showed the source waits and nothing can
  end the plan early or shed part of it, and serially otherwise.

Mediators construct plans and post-filter rows; the engine does the
issuing.  A join pushes its rows, in call-completion order, through
:class:`OperatorTree` (:mod:`repro.engine.operators`): two projections
into one symmetric hash join.  See ``docs/engine.md`` for the model and
its determinism guarantees.
"""

from repro.engine.engine import FailureKind, RetrievalEngine
from repro.engine.executor import (
    ConcurrentExecutor,
    ExecutionTask,
    PlanExecutor,
    SerialExecutor,
    TaskOutcome,
    build_executor,
)
from repro.engine.operators import OperatorTree
from repro.engine.plan import PlannedQuery, QueryKind, RetrievalPlan

__all__ = [
    "ConcurrentExecutor",
    "ExecutionTask",
    "FailureKind",
    "OperatorTree",
    "PlanExecutor",
    "PlannedQuery",
    "QueryKind",
    "RetrievalEngine",
    "RetrievalPlan",
    "SerialExecutor",
    "TaskOutcome",
    "build_executor",
]
