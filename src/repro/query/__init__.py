"""Query model and NULL-aware executor.

Exports the predicate AST, the three query classes (selection, aggregate,
join) and evaluation helpers distinguishing certain from possible answers.
"""

from repro.query.executor import (
    certain_answers,
    certain_count,
    certain_or_possible,
    evaluate_aggregate,
    possible_answers,
)
from repro.query.possible_worlds import (
    active_domains,
    aggregate_bounds,
    certain_answers_by_enumeration,
    completions_of,
    is_certain_answer,
    is_possible_answer,
    possible_answers_by_enumeration,
    witness_domains,
)
from repro.query.predicates import (
    And,
    AttributePredicate,
    Between,
    Comparison,
    Equals,
    NotEquals,
    OneOf,
    Predicate,
    conjuncts_of,
)
from repro.query.query import AggregateFunction, AggregateQuery, JoinQuery, SelectionQuery
from repro.query.sqlparse import parse_selection

__all__ = [
    "Predicate",
    "AttributePredicate",
    "Equals",
    "NotEquals",
    "Between",
    "Comparison",
    "OneOf",
    "And",
    "conjuncts_of",
    "SelectionQuery",
    "AggregateFunction",
    "AggregateQuery",
    "JoinQuery",
    "certain_answers",
    "certain_count",
    "possible_answers",
    "certain_or_possible",
    "evaluate_aggregate",
    "active_domains",
    "witness_domains",
    "completions_of",
    "is_certain_answer",
    "is_possible_answer",
    "certain_answers_by_enumeration",
    "possible_answers_by_enumeration",
    "aggregate_bounds",
    "parse_selection",
]
