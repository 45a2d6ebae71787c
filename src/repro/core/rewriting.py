"""Generation of rewritten queries (Section 4.2, step 2a).

Given the base result set of a user query, QPIAD generates one rewritten
query per distinct value combination of the determining set of each
constrained attribute.  The rewritten query drops the constraint on the
target attribute (so tuples with NULL there can be retrieved through a
plain web form) and constrains its determining set instead.

Each rewritten query carries the statistics the ordering stage needs:
estimated precision ``P(Am = vm | dtrSet values)`` from the AFD-enhanced
classifier and estimated selectivity from the sample.  Both are computed
from the determining-value combination alone, so a candidate's query is
built only when something reads it: the ranker reads the few it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import RewritingError
from repro.mining.afd import Afd
from repro.mining.knowledge import KnowledgeBase
from repro.mining.selectivity import SampleMasks
from repro.query.predicates import And, Between, Equals, Predicate
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


class _QueryOnRead:
    """The :attr:`RewrittenQuery.query` field: it holds the query itself or
    the :class:`_Rewriting` that builds it, and a read returns the query.

    A descriptor-typed dataclass field: the dataclass ``__init__`` stores
    the value through :meth:`__set__`, and the frozen class refuses every
    later assignment.  It has no default, so ``query`` stays required.
    """

    def __get__(
        self, candidate: "RewrittenQuery | None", owner: "type | None" = None
    ) -> SelectionQuery:
        if candidate is None:
            raise AttributeError("query")  # no class-level default
        held = candidate.__dict__["query"]
        return held.query if isinstance(held, _Rewriting) else held

    def __set__(
        self, candidate: "RewrittenQuery", value: "SelectionQuery | _Rewriting"
    ) -> None:
        candidate.__dict__["query"] = value


@dataclass(frozen=True)
class RewrittenQuery:
    """A rewritten query plus the statistics used to order it.

    Attributes
    ----------
    query:
        The query to issue to the source (never constrains
        :attr:`target_attribute`).  A candidate
        :func:`rewritten_from_bindings` scored holds how to build its
        query, not the query: it is built the first time it is read and
        every later read returns it.  Building is idempotent, so two
        threads reading a shared candidate at once get equal queries.  A
        hand-built candidate holds the query it was given.
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

    query: SelectionQuery = _QueryOnRead()
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
        """A copy carrying *recall* and *f_measure* (the copy holds the
        built query)."""
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

    One candidate per bound combination, scored from the combination's
    replacement predicates (one per determining attribute); no query is
    built here, each is built when first read (see
    :class:`RewrittenQuery`).  Per binding:

    * each determining predicate is made once per distinct value of its
      column, and a combination whose replacements equal an earlier one's
      would rewrite to an equal query, so it is skipped;
    * selectivity is one :class:`~repro.mining.selectivity.SampleMasks`
      batch: one sample mask per distinct predicate in the call, the
      conjuncts every candidate keeps ANDed once, and each candidate's
      replacement masks ANDed column by column for all candidates at once;
    * precision is one :meth:`KnowledgeBase.value_distributions` batch,
      read as :func:`target_probabilities` reads it (each candidate keeps
      its posterior).

    Candidates, their order, their queries and their estimates are exactly
    those of building each query with ``query.replacing`` (plus the
    leftover rewrite, see :class:`_Replacing`) and scoring it alone.
    Raises :class:`RewritingError` when no constrained attribute is
    rewritable (*bindings* is empty).
    """
    if not bindings:
        raise RewritingError(
            f"no constrained attribute of {query!r} has a usable AFD; "
            "cannot generate rewritten queries"
        )
    masks = SampleMasks(knowledge.selectivity)
    candidates: list[RewrittenQuery] = []
    for attribute, determining, combos in bindings:
        if not combos:
            continue
        replacing = _Replacing(query, attribute, determining)
        # Equal predicates share a mask index, so a combination whose
        # indices repeat an earlier one's would rewrite to an equal query.
        first: dict[tuple[int, ...], tuple[tuple[Any, ...], tuple[Predicate, ...]]] = {}
        for combo, replacements, indices in zip(
            combos, *_replacement_rows(knowledge, masks, determining, combos)
        ):
            first.setdefault(indices, (combo, replacements))
        selectivities = masks.estimate(
            list(first), [masks.index(conjunct) for conjunct in replacing.kept]
        )
        evidences = [dict(zip(determining, combo)) for combo, __ in first.values()]
        best_afd = knowledge.best_afd(attribute)
        posteriors = knowledge.value_distributions(attribute, evidences, method)
        precisions = _satisfying_mass(
            knowledge, attribute, query.conjuncts_on(attribute), posteriors
        )
        candidates.extend(
            RewrittenQuery(
                query=_Rewriting(replacing, replacements),
                target_attribute=attribute,
                evidence=evidence,
                estimated_precision=precision,
                estimated_selectivity=estimate,
                afd=best_afd,
                posterior=posterior,
            )
            for (__, replacements), evidence, precision, estimate, posterior in zip(
                first.values(), evidences, precisions, selectivities, posteriors
            )
        )
    return candidates


def _replacement_rows(
    knowledge: KnowledgeBase,
    masks: SampleMasks,
    determining: Sequence[str],
    combos: Sequence[tuple[Any, ...]],
) -> "tuple[Iterator[tuple[Predicate, ...]], Iterator[tuple[int, ...]]]":
    """Each of *combos*' replacement predicates, and their mask indices.

    A column's predicates are made once per distinct value, keyed by value
    identity, not equality: 0.0 and -0.0 (or 1 and True) are equal but
    print differently, and each candidate binds exactly the value its
    combination holds.  The combinations keep every value alive, so no
    identity is reused.
    """
    predicate_columns: list[Iterator[Predicate]] = []
    index_columns: list[Iterator[int]] = []
    for name, column in zip(determining, zip(*combos)):
        ids = list(map(id, column))
        predicate_of = {
            key: _determining_predicate(knowledge, name, value)
            for key, value in dict(zip(ids, column)).items()
        }
        index_of = {key: masks.index(predicate) for key, predicate in predicate_of.items()}
        predicate_columns.append(map(predicate_of.__getitem__, ids))
        index_columns.append(map(index_of.__getitem__, ids))
    return zip(*predicate_columns), zip(*index_columns)


class _Replacing:
    """What the rewritten queries of one binding share.

    ``query.replacing(attribute, replacements)`` conjoins the replacements
    (one per determining attribute) with the conjuncts not on *attribute*,
    dropping duplicates.  A kept conjunct on a determining attribute that
    differs from its replacement (a leftover) is then dropped and that
    replacement moved to the front, one attribute after another; the
    binding subsumes it.  So each rewritten query is its replacements,
    reordered only by leftovers, followed by :attr:`kept`, the conjuncts on
    neither *attribute* nor a determining attribute, in query order.
    """

    __slots__ = ("relation", "kept", "on_determining")

    def __init__(
        self, query: SelectionQuery, attribute: str, determining: Sequence[str]
    ):
        others = [c for c in query.conjuncts if attribute not in c.attributes()]
        self.relation = query.relation
        self.kept = tuple(
            c for c in others if not any(name in c.attributes() for name in determining)
        )
        #: Per determining attribute, the conjuncts of *query* on it.
        self.on_determining = tuple(
            tuple(c for c in others if name in c.attributes()) for name in determining
        )

    def query(self, replacements: Sequence[Predicate]) -> SelectionQuery:
        """The rewritten query binding *replacements*, in determining order."""
        moved: list[Predicate] = []
        stayed: list[Predicate] = []
        for replacement, constraints in zip(replacements, self.on_determining):
            if any(c != replacement for c in constraints):
                moved.append(replacement)
            else:
                stayed.append(replacement)
        # Each leftover rewrite put its replacement before the previous one.
        return SelectionQuery(And([*reversed(moved), *stayed, *self.kept]), self.relation)


class _Rewriting:
    """One candidate's query: its replacements until first read, then the
    query built from them."""

    __slots__ = ("_replacing", "_replacements", "_query")

    def __init__(self, replacing: _Replacing, replacements: tuple[Predicate, ...]):
        self._replacing = replacing
        self._replacements = replacements
        self._query: SelectionQuery | None = None

    @property
    def query(self) -> SelectionQuery:
        query = self._query
        if query is None:
            # Two threads may both build it: they build equal queries from
            # the same immutable parts, and either is as good as the other.
            query = self._query = self._replacing.query(self._replacements)
        return query

    def __repr__(self) -> str:
        return repr(self.query)


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
