"""Experiment workbench: environments, workloads and evaluation runners.

Everything Section 6 does repeatedly lives here so that tests, examples and
the per-figure benchmarks stay short:

* :func:`build_environment` reproduces the §6.2 protocol — generate a
  ground-truth dataset, mask 10% of tuples, split ED into a training sample
  and a test database, mine a knowledge base;
* workload helpers draw random selection queries that actually have
  relevant possible answers (so recall is well-defined);
* runners execute QPIAD / AllReturned / AllRanked on an environment and
  hand back relevance flags ready for the metrics module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.baselines import all_ranked, all_returned
from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.core.results import QueryResult
from repro.datasets.incompleteness import IncompleteDataset, make_incomplete
from repro.errors import QpiadError
from repro.evaluation.oracle import GroundTruthOracle
from repro.mining.knowledge import KnowledgeBase, MiningConfig
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.sources.autonomous import AutonomousSource
from repro.sources.capabilities import SourceCapabilities
from repro.sources.sampler import split_relation

__all__ = [
    "Environment",
    "build_environment",
    "RunOutcome",
    "run_qpiad",
    "run_all_returned",
    "run_all_ranked",
    "selection_workload",
    "classification_accuracy",
]


@dataclass
class Environment:
    """One fully prepared experimental setting (dataset + knowledge + oracle)."""

    dataset: IncompleteDataset
    oracle: GroundTruthOracle
    train: Relation
    test: Relation
    knowledge: KnowledgeBase
    name: str = "experiment"

    def web_source(self, **capability_kwargs) -> AutonomousSource:
        """The test database behind a restricted web-form interface."""
        return AutonomousSource(
            self.name,
            self.test,
            SourceCapabilities.web_form(**capability_kwargs),
        )

    def permissive_source(self) -> AutonomousSource:
        """The test database with counterfactual NULL binding (baselines)."""
        return AutonomousSource(
            self.name, self.test, SourceCapabilities.unrestricted()
        )

    def total_relevant(self, query: SelectionQuery, max_nulls: int | None = 1) -> int:
        """Recall denominator: relevant possible answers in the test DB."""
        return len(self.oracle.relevant_possible(query, within=self.test, max_nulls=max_nulls))


def build_environment(
    complete: Relation,
    incomplete_fraction: float = 0.10,
    train_fraction: float = 0.10,
    seed: int = 42,
    mining: MiningConfig | None = None,
    maskable_attributes: Sequence[str] | None = None,
    attribute_weights: "dict[str, float] | None" = None,
    name: str = "experiment",
) -> Environment:
    """The §6.2 pipeline: GD → ED → train/test split → mined knowledge."""
    dataset = make_incomplete(
        complete,
        incomplete_fraction=incomplete_fraction,
        seed=seed,
        maskable_attributes=maskable_attributes,
        attribute_weights=attribute_weights,
    )
    rng = random.Random(seed + 1)
    train, test = split_relation(dataset.incomplete, train_fraction, rng)
    knowledge = KnowledgeBase(train, database_size=len(test), config=mining)
    return Environment(
        dataset=dataset,
        oracle=GroundTruthOracle(dataset),
        train=train,
        test=test,
        knowledge=knowledge,
        name=name,
    )


@dataclass
class RunOutcome:
    """One system's ranked retrieval on one query, ready for metrics."""

    query: SelectionQuery
    relevance: list[bool]
    total_relevant: int
    tuples_retrieved: int
    queries_issued: int
    result: QueryResult

    @property
    def hits(self) -> int:
        return sum(self.relevance)


def _outcome(env: Environment, query: SelectionQuery, result: QueryResult) -> RunOutcome:
    flags = env.oracle.relevance_flags([a.row for a in result.ranked], query)
    return RunOutcome(
        query=query,
        relevance=flags,
        total_relevant=env.total_relevant(query),
        tuples_retrieved=result.stats.tuples_retrieved,
        queries_issued=result.stats.queries_issued,
        result=result,
    )


def run_qpiad(
    env: Environment, query: SelectionQuery, config: QpiadConfig | None = None
) -> RunOutcome:
    """Run the QPIAD mediator against the web-form source."""
    mediator = QpiadMediator(env.web_source(), env.knowledge, config)
    return _outcome(env, query, mediator.query(query))


def run_all_returned(env: Environment, query: SelectionQuery) -> RunOutcome:
    """Run the AllReturned baseline (needs the permissive source)."""
    return _outcome(env, query, all_returned(env.permissive_source(), query))


def run_all_ranked(
    env: Environment, query: SelectionQuery, method: str | None = None
) -> RunOutcome:
    """Run the AllRanked baseline (needs the permissive source)."""
    result = all_ranked(env.permissive_source(), query, env.knowledge, method=method)
    return _outcome(env, query, result)


def selection_workload(
    env: Environment,
    attribute: str,
    count: int,
    seed: int = 13,
    min_relevant: int = 1,
) -> list[SelectionQuery]:
    """Random single-attribute equality queries with nonzero recall mass.

    Values are drawn (without replacement) from the attribute's domain,
    keeping only values for which the test database holds at least
    *min_relevant* relevant possible answers — queries with an empty recall
    denominator measure nothing.
    """
    rng = random.Random(seed)
    values = env.test.distinct_values(attribute)
    rng.shuffle(values)
    queries: list[SelectionQuery] = []
    for value in values:
        query = SelectionQuery.equals(attribute, value)
        if env.total_relevant(query) >= min_relevant:
            queries.append(query)
        if len(queries) >= count:
            break
    if not queries:
        raise QpiadError(
            f"no query on {attribute!r} has {min_relevant}+ relevant possible "
            "answers; grow the dataset or lower min_relevant"
        )
    return queries


def classification_accuracy(
    env: Environment,
    method: str,
    attributes: Sequence[str] | None = None,
    limit: int | None = None,
) -> float:
    """Null-value prediction accuracy over the test database (Table 3).

    For every masked cell that landed in the test split, predict the missing
    value from the tuple's other attributes using the given classifier
    variant and compare against the masked ground-truth value.  Each
    attribute's cells are predicted in one completions batch.
    """
    test_rows = set(env.test.rows)
    schema = env.dataset.incomplete.schema
    cells: dict[str, list[tuple[Row, Any]]] = {}
    total = 0
    for cell in env.dataset.masked:
        if attributes is not None and cell.attribute not in attributes:
            continue
        row = env.dataset.incomplete.rows[cell.row_index]
        if row not in test_rows:
            continue
        cells.setdefault(cell.attribute, []).append((row, cell.true_value))
        total += 1
        if limit is not None and total >= limit:
            break
    if total == 0:
        raise QpiadError("no masked cells fell into the test split")
    correct = 0
    for attribute, batch in cells.items():
        completions = env.knowledge.completions(
            attribute, [dict(zip(schema.names, row)) for row, __ in batch], method
        )
        correct += sum(
            predicted == true_value
            for (predicted, __), (__, true_value) in zip(completions, batch)
        )
    return correct / total
