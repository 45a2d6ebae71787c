"""Multi-way joins over incomplete autonomous sources.

The paper presents two-way joins and notes the techniques "are applicable to
cases involving multi-way joins" (footnote 5).  This module provides that
extension as a left-deep chain: each relation's certain *and* relevant
possible answers are retrieved with the regular QPIAD machinery, NULL join
values are filled with the classifiers' most likely completion, and the
chain is evaluated by symmetric-hash operators with confidences
multiplying.

The pairwise query-pair scoring of Section 4.5 does not scale past two
relations (the pair lattice is exponential in the number of sources), so
per-source retrieval budgets (``k`` rewritten queries each) play the role
of the pair budget here.

Execution is streaming: per-step retrievals run through the executor and
their answers are pushed into the operator chain in *completion* order —
a fast source's tuples join the moment their counterparts exist, without
waiting for the slowest relation.  A symmetric-hash chain emits every
combination exactly once whatever the interleaving, so the final answer
set is schedule-independent; :meth:`MultiJoinProcessor.query` ranks it
with a total deterministic order at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.engine import (
    ExecutionTask,
    Inlet,
    OperatorNode,
    OperatorTree,
    StreamingProject,
    SymmetricHashJoin,
    build_executor,
)
from repro.errors import MiningError, QpiadError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, resolve_knowledge
from repro.planner import PlanCache
from repro.query.query import SelectionQuery
from repro.relational.relation import Row
from repro.relational.values import is_null
from repro.sources.surface import Source
from repro.telemetry import Telemetry, timed_first

__all__ = ["MultiJoinStep", "MultiJoinedAnswer", "MultiJoinResult", "MultiJoinProcessor"]


@dataclass(frozen=True)
class MultiJoinStep:
    """One relation of a multi-way join chain.

    Parameters
    ----------
    source / knowledge:
        The autonomous source and its mined statistics — a bare
        :class:`~repro.mining.KnowledgeBase` snapshot or a
        :class:`~repro.mining.KnowledgeStore` whose current generation is
        read once per query: the step's retrieval and its NULL join fill
        use that one generation.
    query:
        This relation's selection constraints.
    join_attribute:
        The attribute of *this* relation used to join with the running
        result.
    link_attribute:
        The attribute of the *running result's* schema to join against;
        irrelevant (``None``) for the first step.  Running-result attribute
        names are ``step<i>.<name>``.
    """

    source: Source
    knowledge: "KnowledgeBase | KnowledgeStore"
    query: SelectionQuery
    join_attribute: str
    link_attribute: str | None = None


@dataclass(frozen=True)
class MultiJoinedAnswer:
    """One joined tuple across all steps."""

    rows: tuple[Row, ...]
    confidence: float
    certain: bool

    @property
    def row(self) -> Row:
        combined: tuple = ()
        for part in self.rows:
            combined += part
        return combined


@dataclass
class MultiJoinResult:
    answers: list[MultiJoinedAnswer] = field(default_factory=list)
    per_step_retrieved: list[int] = field(default_factory=list)

    @property
    def certain(self) -> list[MultiJoinedAnswer]:
        return [answer for answer in self.answers if answer.certain]

    @property
    def possible(self) -> list[MultiJoinedAnswer]:
        return [answer for answer in self.answers if not answer.certain]


@dataclass(frozen=True)
class _Partial:
    """A partially joined tuple flowing through the operator chain.

    The per-step tuples live in ``row_chain`` (not ``rows``) to keep the
    name distinct from :attr:`Relation.rows` — partials are mediator-side
    bookkeeping, never relation storage.
    """

    row_chain: tuple[Row, ...]
    confidence: float
    certain: bool
    link_values: dict  # attribute name (step<i>.<name>) -> value


@dataclass(frozen=True)
class _StepItem:
    """One step's retrieved answer, join value resolved, entering a join."""

    row: Row
    confidence: float
    certain: bool
    join_value: Any
    probability: float


def _ranking_key(answer: MultiJoinedAnswer) -> tuple[bool, float, str]:
    """Canonical total order: certain first, then confidence, then a value
    tie-break so the ranking is identical at every executor width."""
    return (not answer.certain, -answer.confidence, repr(answer))


class MultiJoinProcessor:
    """Folds two or more :class:`MultiJoinStep`\\ s into joined answers."""

    def __init__(self, steps: "list[MultiJoinStep] | tuple[MultiJoinStep, ...]",
                 k: int | None = 10, alpha: float = 0.5,
                 max_concurrency: int = 1,
                 telemetry: "Telemetry | None" = None,
                 plan_cache: "PlanCache | None" = None):
        steps = list(steps)
        if len(steps) < 2:
            raise QpiadError("a multi-way join needs at least two steps")
        if any(step.link_attribute is None for step in steps[1:]):
            raise QpiadError("every step after the first needs a link_attribute")
        if max_concurrency < 1:
            raise QpiadError(
                f"max_concurrency must be at least 1, got {max_concurrency}"
            )
        # One config serves every step's mediator; building it here rejects a
        # bad alpha or k at construction, not inside the first step's task.
        self._config = QpiadConfig(alpha=alpha, k=k)
        # A link attribute that names nothing in the running result's
        # step<i>.<name> namespace used to slip through and silently
        # produce zero answers; fail at construction instead.
        available: set[str] = set()
        for index, step in enumerate(steps):
            if index > 0 and step.link_attribute not in available:
                raise QpiadError(
                    f"step {index} link_attribute {step.link_attribute!r} names "
                    f"nothing in the running result; available link attributes: "
                    f"{', '.join(sorted(available))}"
                )
            available.update(
                f"step{index}.{name}" for name in step.source.schema.names
            )
        self.steps = steps
        self.k = k
        self.alpha = alpha
        self.max_concurrency = max_concurrency
        self._telemetry = telemetry
        # One shared cache across all per-step mediators: keys carry each
        # step's knowledge fingerprint, so chains over different sources
        # coexist in it safely (including under a concurrent executor).
        self._plan_cache = plan_cache

    def query(self) -> MultiJoinResult:
        """Drain the streaming chain and rank at the edge."""
        result = MultiJoinResult()
        answers = list(self.stream_answers(result=result))
        answers.sort(key=_ranking_key)
        result.answers = answers
        return result

    def stream_answers(
        self, result: "MultiJoinResult | None" = None
    ) -> Iterator[MultiJoinedAnswer]:
        """Joined answers in arrival order (streaming interface).

        Each answer surfaces as soon as every step's contributing tuple
        has been retrieved — no ordering is owed; :meth:`query` sorts.
        When *result* is given, ``per_step_retrieved`` fills in as step
        retrievals complete.  The latency to the first answer feeds the
        ``mediator.time_to_first_answer_seconds`` histogram.
        """
        if result is None:
            result = MultiJoinResult()
        for partial in timed_first(
            self._stream(result), self._telemetry, "mediator.time_to_first_answer_seconds"
        ):
            yield MultiJoinedAnswer(
                partial.row_chain,
                1.0 if partial.certain else partial.confidence,
                partial.certain,
            )

    # ------------------------------------------------------------------

    def _stream(self, result: MultiJoinResult) -> Iterator[_Partial]:
        """Push per-step retrievals through the chain in completion order.

        Step retrievals are independent, so a concurrent executor runs
        them side by side; the symmetric-hash chain absorbs their answers
        in whatever order they land and still emits every combination
        exactly once.  Any step's failure propagates — a multi-way join
        cannot degrade around a missing relation.
        """
        executor = build_executor(self.max_concurrency)
        knowledge = [resolve_knowledge(step.knowledge) for step in self.steps]
        tree = self._build_tree(knowledge)
        result.per_step_retrieved = [0] * len(self.steps)
        tasks = (
            ExecutionTask(index, self._retriever(step, knowledge[index]))
            for index, step in enumerate(self.steps)
        )
        outcomes = executor.map_completed(tasks, lambda: False)
        try:
            for outcome in outcomes:
                if outcome.error is not None:
                    raise outcome.error
                answers = outcome.value
                result.per_step_retrieved[outcome.rank] = len(answers)
                inlet = f"step{outcome.rank}"
                for entry in answers:
                    yield from tree.push(inlet, entry)
        finally:
            outcomes.close()

    def _build_tree(self, knowledge: "list[KnowledgeBase]") -> OperatorTree:
        """The left-deep physical plan over the chain's steps.

        ::

                            join:stepN
                            /       \\
                          ...    project:stepN — Inlet "stepN"
                          /
                     join:step1
                     /       \\
            project:step0   project:step1
                   |             |
            Inlet "step0"  Inlet "step1"

        Projects resolve each answer's join value (predicting NULLs from
        the step's *knowledge* snapshot) and, for step 0, seed the partial
        with its ``step0.*`` link namespace;
        each join matches the running partial's link attribute against
        the step's effective join value, multiplying confidences.
        """

        def step_project(index: int, step: MultiJoinStep) -> StreamingProject:
            schema = step.source.schema

            def transform(entry: tuple[Row, float, bool]) -> Any:
                row, confidence, certain = entry
                if index == 0:
                    link_values = {
                        f"step0.{name}": value
                        for name, value in zip(schema.names, row)
                    }
                    return _Partial((row,), confidence, certain, link_values)
                value, probability = self._join_value(step, knowledge[index], row)
                if value is None:
                    return None
                return _StepItem(row, confidence, certain, value, probability)

            return StreamingProject(transform)

        def step_join(index: int, step: MultiJoinStep) -> SymmetricHashJoin:
            schema = step.source.schema

            def left_key(partial: _Partial) -> Any:
                value = partial.link_values.get(step.link_attribute)
                if value is None or is_null(value):
                    return None
                return value

            def combine(partial: _Partial, item: _StepItem) -> _Partial:
                link_values = dict(partial.link_values)
                link_values.update(
                    {
                        f"step{index}.{name}": value
                        for name, value in zip(schema.names, item.row)
                    }
                )
                return _Partial(
                    partial.row_chain + (item.row,),
                    partial.confidence * item.confidence * item.probability,
                    partial.certain and item.certain and item.probability == 1.0,
                    link_values,
                )

            return SymmetricHashJoin(
                left_key=left_key,
                right_key=lambda item: item.join_value,
                combine=combine,
            )

        upstream = OperatorNode(
            step_project(0, self.steps[0]), [Inlet("step0")], "project:step0"
        )
        for index, step in enumerate(self.steps[1:], start=1):
            arrival = OperatorNode(
                step_project(index, step),
                [Inlet(f"step{index}")],
                f"project:step{index}",
            )
            upstream = OperatorNode(
                step_join(index, step), [upstream, arrival], f"join:step{index}"
            )
        return OperatorTree(upstream)

    def _retriever(
        self, step: MultiJoinStep, knowledge: KnowledgeBase
    ) -> "Callable[[], list[tuple[Row, float, bool]]]":
        """One step's QPIAD retrieval, over *knowledge*, as an executor task."""

        def run() -> list[tuple[Row, float, bool]]:
            mediator = QpiadMediator(
                step.source,
                knowledge,
                self._config,
                telemetry=self._telemetry,
                plan_cache=self._plan_cache,
            )
            retrieval = mediator.query(step.query)
            answers: list[tuple[Row, float, bool]] = [
                (row, 1.0, True) for row in retrieval.certain
            ]
            answers.extend(
                (answer.row, answer.confidence, False) for answer in retrieval.ranked
            )
            return answers

        return run

    def _join_value(
        self, step: MultiJoinStep, knowledge: KnowledgeBase, row: Row
    ) -> tuple[Any, float]:
        """The row's join value (predicted when NULL) and its probability."""
        schema = step.source.schema
        value = row[schema.index_of(step.join_attribute)]
        if not is_null(value):
            return value, 1.0
        try:
            [completion] = knowledge.completions(
                step.join_attribute, [dict(zip(schema.names, row))]
            )
        except MiningError:
            return None, 0.0
        return completion
