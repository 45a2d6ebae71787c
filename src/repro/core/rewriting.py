"""Generation of rewritten queries (Section 4.2, step 2a).

Given the base result set of a user query, QPIAD generates one rewritten
query per distinct value combination of the determining set of each
constrained attribute.  The rewritten query drops the constraint on the
target attribute (so tuples with NULL there can be retrieved through a
plain web form) and constrains its determining set instead.

Each rewritten query carries the statistics the ordering stage needs:
estimated precision ``P(Am = vm | dtrSet values)`` from the AFD-enhanced
classifier and estimated selectivity from the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import RewritingError
from repro.mining.afd import Afd
from repro.mining.knowledge import KnowledgeBase
from repro.query.predicates import Between, Equals, Predicate
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.values import is_null

__all__ = [
    "RewritingBinding",
    "RewrittenQuery",
    "rewriting_bindings",
    "rewritten_from_bindings",
    "row_probabilities",
    "target_probabilities",
]


@dataclass(frozen=True)
class RewrittenQuery:
    """A rewritten query plus the statistics used to order it.

    Attributes
    ----------
    query:
        The query to issue to the source (never constrains
        :attr:`target_attribute`).
    target_attribute:
        The constrained attribute whose missing values this query hunts.
    evidence:
        The determining-set values the query binds (raw values).
    estimated_precision:
        ``P(target constraint satisfied | evidence)`` from the classifier.
    estimated_selectivity:
        ``EstSel``: expected number of incomplete tuples retrieved.
    afd:
        The AFD whose determining set was used (``None`` only in fallback
        paths).
    estimated_recall / f_measure:
        Filled in by the ordering stage (normalized throughput and the
        weighted harmonic mean); zero until then.
    posterior:
        The classifier's posterior over :attr:`target_attribute` given
        :attr:`evidence`, which :attr:`estimated_precision` was read
        from; ``None`` when the query was built by hand.  Not part of
        equality or ``repr``.
    """

    query: SelectionQuery
    target_attribute: str
    evidence: Mapping[str, Any]
    estimated_precision: float
    estimated_selectivity: float
    afd: Afd | None
    estimated_recall: float = 0.0
    f_measure: float = 0.0
    posterior: Mapping[Any, float] | None = field(default=None, compare=False)

    @property
    def expected_throughput(self) -> float:
        """Expected number of *relevant* answers: precision × selectivity."""
        return self.estimated_precision * self.estimated_selectivity

    def with_ordering_scores(self, recall: float, f_measure: float) -> "RewrittenQuery":
        return replace(self, estimated_recall=recall, f_measure=f_measure)

    def __repr__(self) -> str:
        return (
            f"RewrittenQuery({self.query!r} -> {self.target_attribute!r}, "
            f"P={self.estimated_precision:.3f}, Sel={self.estimated_selectivity:.2f})"
        )


def target_probabilities(
    knowledge: KnowledgeBase,
    attribute: str,
    target_conjuncts: Sequence[Predicate],
    evidences: Sequence[Mapping[str, Any]],
    method: str | None = None,
) -> list[float]:
    """Probability that *attribute*'s missing value satisfies its constraints,
    given each of *evidences*.

    For an equality this is the classifier posterior of the constrained
    value.  For range constraints the posterior mass of every completion
    satisfying all the conjuncts is summed; completions live in mining space
    (bucket labels for discretized numeric attributes), so each label is
    mapped back to a representative raw value before testing.  The
    posteriors come from one :meth:`KnowledgeBase.value_distributions`
    call, and whether a completion satisfies a range target is decided
    once per distinct completion; each evidence's matching mass is then
    summed in posterior order.
    """
    return _satisfying_mass(
        knowledge,
        attribute,
        target_conjuncts,
        knowledge.value_distributions(attribute, evidences, method),
    )


def _satisfying_mass(
    knowledge: KnowledgeBase,
    attribute: str,
    target_conjuncts: Sequence[Predicate],
    posteriors: Sequence[Mapping[Any, float]],
) -> list[float]:
    """Each posterior's mass on the completions of *attribute* that satisfy
    *target_conjuncts* (see :func:`target_probabilities`)."""
    if len(target_conjuncts) == 1 and isinstance(target_conjuncts[0], Equals):
        value = target_conjuncts[0].value
        return [posterior.get(value, 0.0) for posterior in posteriors]
    probe_schema = Schema.of(attribute)
    satisfied: dict[Any, bool] = {}

    def satisfies(label: Any) -> bool:
        verdict = satisfied.get(label)
        if verdict is None:
            row = (knowledge.representative_value(attribute, label),)
            verdict = satisfied[label] = all(
                conjunct.matches(row, probe_schema) for conjunct in target_conjuncts
            )
        return verdict

    probabilities: list[float] = []
    for posterior in posteriors:
        probability = 0.0
        for label, mass in posterior.items():
            if satisfies(label):
                probability += mass
        probabilities.append(probability)
    return probabilities


def row_probabilities(
    knowledge: KnowledgeBase,
    query: SelectionQuery,
    schema: Schema,
    rows: Sequence[tuple],
    method: str | None = None,
) -> list[float]:
    """Probability that every constrained value each of *rows* is missing
    satisfies *query*.

    The naive joint (independence assumption): the product, in constraint
    order, of each missing attribute's :func:`target_probabilities` given
    the whole row as evidence.  A row missing no constrained value scores
    1.0.  One batch per constrained attribute, over the rows missing it.
    """
    probabilities = [1.0] * len(rows)
    for attribute in query.constrained_attributes:
        index = schema.index_of(attribute)
        missing = [position for position, row in enumerate(rows) if is_null(row[index])]
        evidences = [dict(zip(schema.names, rows[position])) for position in missing]
        factors = target_probabilities(
            knowledge, attribute, query.conjuncts_on(attribute), evidences, method
        )
        for position, factor in zip(missing, factors):
            probabilities[position] *= factor
    return probabilities


class RewritingBinding(NamedTuple):
    """What one constrained attribute's rewritings read from a base set.

    Attributes
    ----------
    attribute:
        The constrained attribute the rewritings hunt.
    determining:
        Its best AFD's determining attributes.
    combos:
        The raw determining-value combination of the first base tuple seen
        in each mining-label class, in first-seen order; combinations with a
        NULL are skipped.  Empty when the base set lacks a determining
        attribute.
    """

    attribute: str
    determining: tuple[str, ...]
    combos: tuple[tuple[Any, ...], ...]


def rewriting_bindings(
    query: SelectionQuery, base_set: Relation, knowledge: KnowledgeBase
) -> tuple[RewritingBinding, ...]:
    """Everything rewriting reads from *base_set*, in one pass over it.

    One binding per rewritable constrained attribute (one with a best AFD),
    in constraint order.  Given the query and the knowledge, the candidates
    are a pure function of these bindings — which is why the planner keys
    cached plans on them rather than on every base-set row.

    The pass projects each row onto the union of the determining columns
    and deduplicates the projections in C (``itemgetter`` + ``dict.fromkeys``
    keep the first-seen object of each distinct combination, in order)
    before any mining label is computed.  Discretized numeric attributes
    are then compared by bucket label, so two base tuples whose ages fall
    in the same bucket bind one rewritten query rather than one per exact
    age.  Web forms cannot bind NULL, so combinations containing one are
    skipped.
    """
    rewritable = [
        (attribute, afd.determining)
        for attribute in query.constrained_attributes
        if (afd := knowledge.best_afd(attribute)) is not None
    ]
    schema = base_set.schema
    columns = tuple(
        dict.fromkeys(
            name
            for __, determining in rewritable
            for name in determining
            if name in schema
        )
    )
    distinct = (
        tuple(dict.fromkeys(_project(base_set, schema.indices_of(columns))))
        if columns
        else ()
    )
    bindings: list[RewritingBinding] = []
    for attribute, determining in rewritable:
        if any(name not in schema for name in determining):
            combos: tuple[tuple[Any, ...], ...] = ()
        else:
            positions = [columns.index(name) for name in determining]
            combos = _first_per_label_class(
                tuple(dict.fromkeys(_project(distinct, positions))),
                determining,
                knowledge,
            )
        bindings.append(RewritingBinding(attribute, determining, combos))
    return tuple(bindings)


def rewritten_from_bindings(
    query: SelectionQuery,
    bindings: Sequence[RewritingBinding],
    knowledge: KnowledgeBase,
    method: str | None = None,
) -> list[RewrittenQuery]:
    """The candidate rewritten queries *bindings* yield for *query*.

    One candidate per bound combination, scored with its estimated
    precision and selectivity.  A binding's queries are built first, each
    determining predicate once per distinct value, and then scored
    together: one :meth:`KnowledgeBase.value_distributions` batch for
    precision, as :func:`target_probabilities` reads it (each candidate
    keeps its posterior), and one
    :meth:`SelectivityEstimator.estimate_all` batch for selectivity.
    Raises :class:`RewritingError` when no constrained attribute is
    rewritable (*bindings* is empty).
    """
    if not bindings:
        raise RewritingError(
            f"no constrained attribute of {query!r} has a usable AFD; "
            "cannot generate rewritten queries"
        )
    # Keyed by value identity, not equality: 0.0 and -0.0 (or 1 and True)
    # are equal but print differently, and each candidate binds exactly
    # the value its combination holds.  The combinations keep every value
    # alive for the whole call, so no identity is reused.
    determining_predicates: dict[tuple[str, int], Predicate] = {}

    def determining_predicate(name: str, value: Any) -> Predicate:
        key = (name, id(value))
        predicate = determining_predicates.get(key)
        if predicate is None:
            predicate = determining_predicates[key] = _determining_predicate(
                knowledge, name, value
            )
        return predicate

    candidates: list[RewrittenQuery] = []
    seen: set[tuple[str, SelectionQuery]] = set()
    for attribute, determining, combos in bindings:
        queries: list[SelectionQuery] = []
        evidences: list[dict[str, Any]] = []
        for combo in combos:
            replacements = [
                determining_predicate(name, value)
                for name, value in zip(determining, combo)
            ]
            rewritten = query.replacing(attribute, replacements)
            # Drop leftover original conjuncts on determining attributes: the
            # base-tuple binding subsumes them.
            for name, replacement in zip(determining, replacements):
                extra = [
                    conjunct
                    for conjunct in rewritten.conjuncts_on(name)
                    if conjunct != replacement
                ]
                if extra:
                    rewritten = rewritten.replacing(name, [replacement])
            key = (attribute, rewritten)
            if key in seen:
                continue
            seen.add(key)
            queries.append(rewritten)
            evidences.append(dict(zip(determining, combo)))
        if not queries:
            continue

        best_afd = knowledge.best_afd(attribute)
        posteriors = knowledge.value_distributions(attribute, evidences, method)
        precisions = _satisfying_mass(
            knowledge, attribute, query.conjuncts_on(attribute), posteriors
        )
        selectivities = knowledge.selectivity.estimate_all(queries)
        candidates.extend(
            RewrittenQuery(
                query=rewritten,
                target_attribute=attribute,
                evidence=evidence,
                estimated_precision=precision,
                estimated_selectivity=selectivity,
                afd=best_afd,
                posterior=posterior,
            )
            for rewritten, evidence, precision, selectivity, posterior in zip(
                queries, evidences, precisions, selectivities, posteriors
            )
        )
    return candidates


def _project(rows: Iterable[tuple], indices: Sequence[int]) -> Iterable[tuple]:
    """Each row's values at (one or more) *indices*, as a tuple, in C."""
    if len(indices) == 1:
        return zip(map(itemgetter(indices[0]), rows))
    return map(itemgetter(*indices), rows)


def _first_per_label_class(
    combos: Sequence[tuple[Any, ...]],
    determining: Sequence[str],
    knowledge: KnowledgeBase,
) -> tuple[tuple[Any, ...], ...]:
    """The first NULL-free combination of each mining-label class.

    Labels are computed once per distinct value of each column, not once
    per combination.  A NULL gets no label, so a combination holding one
    maps to a ``None`` label and is skipped (cells are never ``None``).
    """
    label_columns: list[Iterable[Any]] = []
    for name, column in zip(determining, zip(*combos)):
        label_of = {
            value: knowledge.mining_label(name, value)
            for value in dict.fromkeys(column)
            if not is_null(value)
        }
        label_columns.append(map(label_of.get, column))
    first: dict[tuple, tuple[Any, ...]] = {}
    for combo, combo_labels in zip(combos, zip(*label_columns)):
        if None not in combo_labels:
            first.setdefault(combo_labels, combo)
    return tuple(first.values())


def _determining_predicate(
    knowledge: KnowledgeBase, attribute: str, value: Any
) -> Predicate:
    """The predicate a rewritten query binds for one determining value.

    Categorical attributes bind the exact value; discretized numeric
    attributes bind the value's whole bucket as a range, matching the
    granularity the classifier was trained at (an exact ``age = 37`` query
    would be needlessly selective).
    """
    if knowledge.is_discretized(attribute):
        label = knowledge.mining_label(attribute, value)
        low, high = knowledge.bucket_bounds(attribute, label)
        if low == float("-inf") and high == float("inf"):
            return Equals(attribute, value)
        return Between(attribute, low, high)
    return Equals(attribute, value)
