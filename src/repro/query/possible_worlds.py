"""Possible-worlds semantics for incomplete relations (related work, §2).

The classical treatment of incompleteness (Imieliński & Lipski; Codd
tables) views an incomplete relation as the set of *all its completions*:
every NULL independently replaced by a domain value.  A tuple is a

* **certain answer** when it satisfies the query in *every* completion, and
* **possible answer** when it satisfies the query in *some* completion.

QPIAD's Definition 2 is the pragmatic specialization of this semantics to
conjunctive selections.  This module implements the semantics *directly* —
by quantifying over per-attribute completions — so the specialized executor
(:mod:`repro.query.executor`) can be validated against first principles.
Tests use the equivalences:

* ``certain_answers(q, r) == [t | certain_in_all_worlds(t, q)]``
* ``certain_or_possible(q, r) == [t | possible_in_some_world(t, q)]``

Domains are taken from the relation's own active domain (per attribute),
the standard closed-world choice for finite enumeration.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from repro.errors import QpiadError
from repro.query.query import AggregateQuery, SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null

__all__ = [
    "active_domains",
    "witness_domains",
    "completions_of",
    "is_certain_answer",
    "is_possible_answer",
    "certain_answers_by_enumeration",
    "aggregate_bounds",
    "possible_answers_by_enumeration",
]

_MAX_COMPLETIONS = 100_000


def active_domains(relation: Relation) -> dict[str, list]:
    """Per-attribute active domains (distinct non-NULL values, in order)."""
    return {
        name: relation.distinct_values(name) for name in relation.schema.names
    }


class _FreshValue:
    """An open-world witness: a value distinct from every constant.

    Classical incompleteness semantics quantifies over *all* domain values,
    not just those observed.  For deciding certain/possible answers of
    conjunctive selections it suffices to add, per attribute, the constants
    mentioned in the query plus one fresh value unequal to everything —
    the standard small-model argument.
    """

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fresh:{self.label}>"


def witness_domains(relation: Relation, query: SelectionQuery) -> dict[str, list]:
    """Active domains augmented with query constants and a fresh witness.

    With these domains, quantification over completions decides the
    *open-world* certain/possible status of a tuple for conjunctive
    selection queries exactly.
    """
    from repro.query.predicates import Between, Comparison, Equals, NotEquals, OneOf

    domains = active_domains(relation)
    for name in relation.schema.names:
        extra: list = []
        for conjunct in query.conjuncts_on(name):
            if isinstance(conjunct, Equals) or isinstance(conjunct, NotEquals):
                extra.append(conjunct.value)
            elif isinstance(conjunct, OneOf):
                extra.extend(conjunct.values)
            elif isinstance(conjunct, Between):
                extra.extend([conjunct.low, conjunct.high])
            elif isinstance(conjunct, Comparison):
                extra.append(conjunct.value)
                if isinstance(conjunct.value, (int, float)):
                    # Witnesses strictly beyond the bound, so strict
                    # comparisons have a satisfying completion too.
                    extra.extend([conjunct.value - 1, conjunct.value + 1])
        merged = list(domains.get(name, []))
        for value in extra:
            if value not in merged:
                merged.append(value)
        merged.append(_FreshValue(name))
        domains[name] = merged
    return domains


def completions_of(
    row: Row, relation: Relation, domains: "dict[str, list] | None" = None
) -> Iterator[Row]:
    """Every completion of *row* over the (active) domains — ``C(t̂)`` of
    Definition 1.

    A complete row yields exactly itself.  Raises when the completion space
    exceeds a safety bound; enumeration is a validation tool, not an
    execution strategy.
    """
    domains = domains if domains is not None else active_domains(relation)
    names = relation.schema.names
    choices: list[Sequence] = []
    size = 1
    for name, value in zip(names, row):
        if is_null(value):
            domain = domains.get(name) or []
            if not domain:
                return  # a NULL with an empty domain has no completion
            choices.append(domain)
            size *= len(domain)
        else:
            choices.append((value,))
    if size > _MAX_COMPLETIONS:
        raise QpiadError(
            f"row has {size} completions, beyond the enumeration bound "
            f"{_MAX_COMPLETIONS}"
        )
    for combination in product(*choices):
        yield tuple(combination)


def is_certain_answer(
    row: Row,
    query: SelectionQuery,
    relation: Relation,
    domains: "dict[str, list] | None" = None,
) -> bool:
    """True iff *row* satisfies *query* in every completion."""
    schema = relation.schema
    completions = list(completions_of(row, relation, domains))
    if not completions:
        return False
    return all(query.predicate.matches(world, schema) for world in completions)


def is_possible_answer(
    row: Row,
    query: SelectionQuery,
    relation: Relation,
    domains: "dict[str, list] | None" = None,
) -> bool:
    """True iff *row* satisfies *query* in at least one completion."""
    schema = relation.schema
    return any(
        query.predicate.matches(world, schema)
        for world in completions_of(row, relation, domains)
    )


def aggregate_bounds(aggregate: "AggregateQuery", relation: Relation) -> tuple[float, float]:
    """Tight COUNT/SUM bounds over all completions of *relation*.

    The possible-worlds view of aggregation: every completion of the
    incomplete relation yields one aggregate value; the query's answer is
    the interval they span.  For conjunctive selections this is computable
    without enumeration:

    * **COUNT(*)** — low counts only certain answers; high adds every
      possible answer (each has some completion satisfying the query).
    * **SUM(a)** — low takes certain answers only, scoring a NULL
      aggregated cell at the active domain's minimum; high adds possible
      answers and scores NULL cells at the domain maximum.  (Assumes, as
      usual for bounds over an active domain, that completions draw from
      observed values.)

    QPIAD's prediction-based point estimate (Section 4.4) must always land
    inside this envelope — the property tests assert exactly that.
    """
    from repro.query.executor import certain_answers as _certain
    from repro.query.executor import possible_answers as _possible
    from repro.query.query import AggregateFunction

    function = aggregate.function
    if function not in (AggregateFunction.COUNT, AggregateFunction.SUM):
        raise QpiadError(
            f"bounds are defined for COUNT and SUM, not {function.value}"
        )
    certain = _certain(aggregate.selection, relation)
    possible = _possible(aggregate.selection, relation, max_nulls=None)

    if function is AggregateFunction.COUNT:
        return float(len(certain)), float(len(certain) + len(possible))

    attribute = aggregate.attribute
    values = [v for v in relation.column(attribute) if not is_null(v)]
    domain_low = float(min(values)) if values else 0.0
    domain_high = float(max(values)) if values else 0.0

    index = relation.schema.index_of(attribute)
    low = high = 0.0
    # Certain answers are in every world; a NULL aggregated cell spans the
    # active domain.
    for row in certain:
        value = row[index]
        low += domain_low if is_null(value) else float(value)
        high += domain_high if is_null(value) else float(value)
    # A possible answer appears only in some worlds (its NULL constrained
    # attribute may complete to a non-matching value), so each contributes
    # to the bound only in its favourable direction.
    for row in possible:
        value = row[index]
        low += min(0.0, domain_low if is_null(value) else float(value))
        high += max(0.0, domain_high if is_null(value) else float(value))
    return low, high


def certain_answers_by_enumeration(
    query: SelectionQuery, relation: Relation
) -> Relation:
    """Certain answers computed from first principles (for validation)."""
    domains = witness_domains(relation, query)
    rows = [
        row for row in relation if is_certain_answer(row, query, relation, domains)
    ]
    return Relation(relation.schema, rows)


def possible_answers_by_enumeration(
    query: SelectionQuery, relation: Relation
) -> Relation:
    """Certain-or-possible answers from first principles (for validation)."""
    domains = witness_domains(relation, query)
    rows = [
        row for row in relation if is_possible_answer(row, query, relation, domains)
    ]
    return Relation(relation.schema, rows)
