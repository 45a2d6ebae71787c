"""Simulated autonomous web databases.

An :class:`AutonomousSource` wraps a backend :class:`~repro.relational.Relation`
behind the web-form interface of :class:`~repro.sources.SourceCapabilities`.
The mediator can only interact with it through :meth:`execute` (and, for the
counterfactual baselines, :meth:`execute_null_binding`); it can never touch
or modify the backend relation — exactly the autonomy constraint QPIAD is
designed around.

The source also keeps access statistics (queries answered, tuples shipped)
so experiments can report query-processing and transmission costs (Fig. 8).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import (
    NullBindingError,
    QueryBudgetExceededError,
    UnsupportedAttributeError,
)
from repro.query.executor import certain_answers, possible_answers
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.capabilities import SourceCapabilities

__all__ = ["AccessStatistics", "AutonomousSource"]


@dataclass
class AccessStatistics:
    """Running totals of the traffic one mediator session generated.

    Updates are locked: with a concurrent plan executor several engine
    threads hit the same source, and these totals back the chaos suite's
    exact-accounting assertions.  A query is counted when it is charged,
    before the source scans, so the budget check and the count are one
    locked step and concurrent callers cannot overrun a query budget.
    """

    queries_answered: int = 0
    tuples_returned: int = 0
    rejected_queries: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def charge(self, budget: int | None) -> bool:
        """Count one query unless *budget* (``None`` = unlimited) is spent.

        Returns whether the query was counted; check and count happen
        under one lock.
        """
        with self._lock:
            if budget is not None and self.queries_answered >= budget:
                return False
            self.queries_answered += 1
            return True

    def record(self, tuples: int) -> None:
        """Add the tuples one charged query shipped."""
        with self._lock:
            self.tuples_returned += tuples

    def record_rejection(self) -> None:
        with self._lock:
            self.rejected_queries += 1

    def reset(self) -> None:
        with self._lock:
            self.queries_answered = 0
            self.tuples_returned = 0
            self.rejected_queries = 0


class AutonomousSource:
    """A read-only, capability-restricted view over a backend relation.

    Parameters
    ----------
    name:
        Source identifier (e.g. ``"cars.com"``).
    backend:
        The full hidden relation.  The source projects it onto
        *local_attributes* — attributes outside the local schema are
        invisible in results and unqueryable, modelling sources whose local
        schema lacks global-schema attributes (Section 4.3).
    capabilities:
        Interface restrictions; defaults to a plain web form.
    local_attributes:
        Names of the attributes the source exposes; defaults to all backend
        attributes.
    """

    def __init__(
        self,
        name: str,
        backend: Relation,
        capabilities: SourceCapabilities | None = None,
        local_attributes: "tuple[str, ...] | list[str] | None" = None,
    ):
        self.name = name
        self.capabilities = capabilities or SourceCapabilities.web_form()
        if local_attributes is None:
            self._view = backend
        else:
            self._view = backend.project(list(local_attributes))
        self.statistics = AccessStatistics()

    # ------------------------------------------------------------------
    # Schema-level introspection (what a mediator can legitimately know)
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The local schema the source advertises."""
        return self._view.schema

    def supports(self, attribute: str) -> bool:
        """Whether *attribute* appears in the local schema."""
        return attribute in self._view.schema

    def can_answer(self, query: SelectionQuery) -> bool:
        """Whether the interface can express *query* at all.

        Every constrained attribute must be in the local schema *and*
        bindable through the web form.  The mediator consults this before
        issuing rewritten queries so unissuable ones are skipped rather
        than burned against the budget.
        """
        return all(
            attribute in self._view.schema and self.capabilities.can_bind(attribute)
            for attribute in query.constrained_attributes
        )

    def cardinality(self) -> int:
        """Total tuple count, if the interface exposes it."""
        if not self.capabilities.exposes_cardinality:
            raise UnsupportedAttributeError(
                f"source {self.name!r} does not expose its cardinality"
            )
        return len(self._view)

    # ------------------------------------------------------------------
    # Query interface
    # ------------------------------------------------------------------

    def execute(self, query: SelectionQuery) -> Relation:
        """Answer a conjunctive query with its certain answers.

        Enforces the web-form restrictions: every constrained attribute must
        be in the local schema and the query budget must not be exhausted.
        Results are capped at ``capabilities.max_results``.
        """
        self._validate(query)
        self._charge()
        result = certain_answers(query, self._view)
        result = self._cap(result)
        self.statistics.record(len(result))
        return result

    def execute_null_binding(
        self, query: SelectionQuery, max_nulls: int | None = None
    ) -> Relation:
        """Retrieve *possible* answers by binding NULL on constrained attributes.

        Only permitted when ``capabilities.allows_null_binding`` — real web
        databases reject this, which is exactly why QPIAD rewrites queries.
        The baselines (``AllReturned``/``AllRanked``) run against sources
        configured with this counterfactual capability.
        """
        if not self.capabilities.allows_null_binding:
            self.statistics.record_rejection()
            raise NullBindingError(
                f"source {self.name!r} does not support binding NULL values "
                f"(query {query!r})"
            )
        self._validate(query)
        self._charge()
        result = possible_answers(query, self._view, max_nulls=max_nulls)
        result = self._cap(result)
        self.statistics.record(len(result))
        return result

    def reset_statistics(self) -> None:
        self.statistics.reset()

    # ------------------------------------------------------------------

    def _validate(self, query: SelectionQuery) -> None:
        for attribute in query.constrained_attributes:
            if attribute not in self._view.schema:
                self.statistics.record_rejection()
                raise UnsupportedAttributeError(
                    f"source {self.name!r} does not support attribute {attribute!r}"
                )
            if not self.capabilities.can_bind(attribute):
                self.statistics.record_rejection()
                raise UnsupportedAttributeError(
                    f"source {self.name!r} exposes {attribute!r} but its web form "
                    "cannot bind it"
                )

    def _charge(self) -> None:
        budget = self.capabilities.query_budget
        if not self.statistics.charge(budget):
            raise QueryBudgetExceededError(
                f"source {self.name!r} exhausted its query budget of {budget}"
            )

    def _cap(self, relation: Relation) -> Relation:
        cap = self.capabilities.max_results
        if cap is not None and len(relation) > cap:
            return relation.take(cap)
        return relation

    def __repr__(self) -> str:
        return f"AutonomousSource({self.name!r}, {len(self._view)} tuples)"
