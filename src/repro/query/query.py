"""Query objects understood by the QPIAD mediator.

Three query classes mirror Section 4 of the paper:

* :class:`SelectionQuery` — conjunctive selections (Sections 4.1–4.3),
* :class:`AggregateQuery` — Sum/Count/Avg/Min/Max over a selection (4.4),
* :class:`JoinQuery` — a two-way equi-join of selections (4.5).

Queries are immutable values; the rewriting machinery produces new queries
from old ones via :meth:`SelectionQuery.replacing`.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterable, Sequence

from repro.errors import QueryError
from repro.query.predicates import And, Equals, Predicate, conjuncts_of

__all__ = ["SelectionQuery", "AggregateFunction", "AggregateQuery", "JoinQuery"]


class SelectionQuery:
    """A conjunctive selection over a single relation.

    Parameters
    ----------
    predicate:
        Any :class:`~repro.query.predicates.Predicate`; conjunctions are
        flattened.
    relation:
        Optional logical name of the target relation/source.  The mediator
        uses it to route join sub-queries; for single-source processing it
        may stay ``None``.

    Examples
    --------
    >>> query = SelectionQuery.equals("body_style", "Convt")
    >>> query.constrained_attributes
    ('body_style',)
    """

    __slots__ = ("predicate", "relation")

    def __init__(self, predicate: Predicate, relation: str | None = None):
        self.predicate = predicate
        self.relation = relation

    # -- constructors ---------------------------------------------------

    @classmethod
    def equals(cls, attribute: str, value: Any, relation: str | None = None) -> "SelectionQuery":
        """Shorthand for a single-attribute equality query."""
        return cls(Equals(attribute, value), relation)

    @classmethod
    def conjunction(
        cls, predicates: Iterable[Predicate], relation: str | None = None
    ) -> "SelectionQuery":
        """A query conjoining *predicates*."""
        return cls(And(list(predicates)), relation)

    # -- inspection -----------------------------------------------------

    @property
    def conjuncts(self) -> tuple[Predicate, ...]:
        return conjuncts_of(self.predicate)

    @property
    def constrained_attributes(self) -> tuple[str, ...]:
        return self.predicate.attributes()

    def conjuncts_on(self, attribute: str) -> tuple[Predicate, ...]:
        """All conjuncts constraining *attribute*."""
        return tuple(c for c in self.conjuncts if attribute in c.attributes())

    def equality_value(self, attribute: str) -> Any:
        """The value bound by an equality conjunct on *attribute*.

        Raises :class:`QueryError` when the attribute is not equality-bound,
        which the aggregate/rewriting code treats as "cannot predict".
        """
        for conjunct in self.conjuncts:
            if isinstance(conjunct, Equals) and conjunct.attribute == attribute:
                return conjunct.value
        raise QueryError(f"query has no equality conjunct on {attribute!r}: {self!r}")

    # -- derivation (used by rewriting) ----------------------------------

    def replacing(
        self, attribute: str, replacements: Sequence[Predicate]
    ) -> "SelectionQuery":
        """Drop every conjunct on *attribute* and conjoin *replacements*.

        This is the core move of QPIAD rewriting (Step 2a): remove the
        constraint on the attribute whose NULLs we want to retrieve and
        constrain its determining set instead.
        """
        kept = [c for c in self.conjuncts if attribute not in c.attributes()]
        merged = list(replacements) + kept
        if not merged:
            raise QueryError(
                f"replacing {attribute!r} with nothing would produce an empty query"
            )
        return SelectionQuery(And(merged), self.relation)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionQuery):
            return NotImplemented
        return (
            frozenset(self.conjuncts) == frozenset(other.conjuncts)
            and self.relation == other.relation
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.conjuncts), self.relation))

    def __repr__(self) -> str:
        target = f"{self.relation}: " if self.relation else ""
        return f"σ[{target}{self.predicate!r}]"


class AggregateFunction(Enum):
    """Aggregate functions supported by Section 4.4."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    def compute(self, values: Sequence[Any]) -> float | None:
        """Apply the function to non-NULL *values* (already filtered)."""
        if self is AggregateFunction.COUNT:
            return float(len(values))
        if not values:
            return None
        if self is AggregateFunction.SUM:
            return float(sum(values))
        if self is AggregateFunction.AVG:
            return float(sum(values)) / len(values)
        if self is AggregateFunction.MIN:
            return float(min(values))
        return float(max(values))


class AggregateQuery:
    """``function(attribute)`` over the answers of a selection query.

    For ``COUNT`` the attribute may be ``"*"``; for every other function it
    must name a numeric attribute.
    """

    __slots__ = ("selection", "function", "attribute")

    def __init__(
        self,
        selection: SelectionQuery,
        function: AggregateFunction,
        attribute: str = "*",
    ):
        if function is not AggregateFunction.COUNT and attribute == "*":
            raise QueryError(f"{function.value}(*) is not defined; name an attribute")
        self.selection = selection
        self.function = function
        self.attribute = attribute

    def __repr__(self) -> str:
        return f"{self.function.value}({self.attribute}) over {self.selection!r}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateQuery):
            return NotImplemented
        return (
            self.selection == other.selection
            and self.function == other.function
            and self.attribute == other.attribute
        )

    def __hash__(self) -> int:
        return hash((self.selection, self.function, self.attribute))


class JoinQuery:
    """A two-way equi-join between selections over two relations.

    ``left`` and ``right`` each carry their own conjunctive constraints; the
    join condition is ``left.join_attribute = right.join_attribute``.  The
    mediator decomposes this into per-source query pairs (Section 4.5).
    """

    __slots__ = ("left", "right", "left_join_attribute", "right_join_attribute")

    def __init__(
        self,
        left: SelectionQuery,
        right: SelectionQuery,
        left_join_attribute: str,
        right_join_attribute: str | None = None,
    ):
        self.left = left
        self.right = right
        self.left_join_attribute = left_join_attribute
        self.right_join_attribute = right_join_attribute or left_join_attribute

    def __repr__(self) -> str:
        return (
            f"{self.left!r} ⋈[{self.left_join_attribute}="
            f"{self.right_join_attribute}] {self.right!r}"
        )
