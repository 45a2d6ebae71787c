"""Capability model of autonomous web databases.

The paper's central constraint is that mediators talk to sources through
web-form interfaces which

* never allow binding NULL in a query ("list cars where Body Style is
  missing" is inexpressible),
* only expose a subset of the global schema (Yahoo! Autos lacks Body Style),
* may cap the number of results returned per query, and
* may limit how many queries a mediator can issue per session (e.g. Google
  Base rate limits).

:class:`SourceCapabilities` encodes these restrictions declaratively;
:class:`repro.sources.autonomous.AutonomousSource` enforces them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SourceCapabilities"]


@dataclass(frozen=True)
class SourceCapabilities:
    """Declarative interface restrictions of one autonomous source.

    Parameters
    ----------
    allows_null_binding:
        Whether queries may ask for tuples with NULL on an attribute.  Real
        web sources do not support this; it exists so the ``AllReturned`` /
        ``AllRanked`` baselines can be simulated for comparison (the paper
        evaluates them under this counterfactual).
    max_results:
        Per-query cap on returned tuples (``None`` = unlimited).
    query_budget:
        Total queries the source will answer per mediator session
        (``None`` = unlimited).  Exceeding it raises
        :class:`repro.errors.QueryBudgetExceededError`.
    exposes_cardinality:
        Whether the source reports its total tuple count (many sites show
        "N results found"); used for selectivity-ratio estimation.
    queryable_attributes:
        Attributes the web form allows *binding* (``None`` = every local
        attribute).  Models forms that display attributes they do not let
        you filter by — the "limited support for query patterns" of the
        paper's abstract.  Returned tuples still carry all local attributes.
    """

    allows_null_binding: bool = False
    max_results: int | None = None
    query_budget: int | None = None
    exposes_cardinality: bool = True
    queryable_attributes: frozenset[str] | None = None

    def can_bind(self, attribute: str) -> bool:
        """Whether the interface accepts a constraint on *attribute*."""
        return self.queryable_attributes is None or attribute in self.queryable_attributes

    @classmethod
    def web_form(
        cls, max_results: int | None = None, query_budget: int | None = None
    ) -> "SourceCapabilities":
        """The typical restricted web-form interface (no NULL binding)."""
        return cls(
            allows_null_binding=False,
            max_results=max_results,
            query_budget=query_budget,
        )

    @classmethod
    def unrestricted(cls) -> "SourceCapabilities":
        """A fully permissive interface (used for oracles and baselines)."""
        return cls(allows_null_binding=True)
