"""Join queries over incomplete autonomous sources (Section 4.5).

The mediator decomposes a join query into per-source selections, generates
rewritten queries on both sides, and must then decide which *pairs* of
queries to issue: a pair only produces answers when the two result sets
share join-attribute values, so components are scored jointly —

    EstSel(qp) = Σ_v EstSel(qp₁, v) · EstSel(qp₂, v)

where ``EstSel(qpᵢ, v) = precision · selectivity · P(join = v)`` and the
join-value distribution ``P`` comes from the NBC classifiers (for rewritten
queries) or the observed base set (for the complete queries).  Pairs are
ordered by F-measure, the component queries of up to K pairs are issued
(each component once; a pair whose EstSel is zero is dropped), and tuples
are joined with NULL join values filled in by the classifiers' most likely
completion.  The complete×complete pair costs no call, so it is joined
whenever its EstSel is non-zero, whatever its rank: the certain answers
are never lost to the top K.

Execution is *streaming*: results flow through one symmetric hash join
(:class:`~repro.engine.operators.OperatorTree`).  Once the two base
calls return, the tree is built with the complete pair already matched
and base rows are pushed in until the first base×base answer, which
surfaces before any rewriting is planned: first-answer latency is
bounded by the base retrievals, in calls and in time.  Only then are
both sides rewritten, the pairs ranked, the tree's match set extended
with the selected pairs and the component calls started; the rest of the
base rows is pushed while those calls wait on the sources, and the
component results flow into the same tree as their calls complete.
Candidates stream in arrival order; :meth:`JoinProcessor.query` ranks at
the edge with a total deterministic order, so the final answer list is
bit-identical at every executor width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeAlias

from repro.core.results import RetrievalStats
from repro.core.rewriting import RewrittenQuery
from repro.engine import OperatorTree, PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import MiningError, QpiadError
from repro.mining.afd import Afd
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, Ranker
from repro.query.predicates import Equals
from repro.query.query import JoinQuery, SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.sources.surface import Source
from repro.telemetry import Telemetry, timed_first

__all__ = ["JoinConfig", "JoinedAnswer", "JoinResult", "JoinProcessor"]

#: A NULL join value's most likely completion and its probability, or
#: ``None`` when the classifier cannot predict it.
_Completion: TypeAlias = tuple[Any, float] | None


@dataclass(frozen=True)
class JoinConfig:
    """Knobs of the join processor.

    ``alpha`` deserves a larger default than for selections: the paper
    observes that with α = 0 the pairing over-commits to precision and
    never retrieves incomplete tuples from the side that is harder to
    predict (Section 6.6), so recall stalls.  ``max_concurrency`` is the
    engine's pinned width.  Above 1 it is the calls in flight per source,
    as the paper's autonomy constraint is per source: the left and the
    right source each keep up to that many, so the two sides' calls
    overlap and the join as a whole may have twice as many on the wire.
    At 1 the join runs one call at a time.  Join processing is strict at
    any width.
    """

    alpha: float = 0.5
    k_pairs: int = 10
    classifier_method: str | None = None
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise QpiadError(f"alpha must be non-negative, got {self.alpha}")
        if self.k_pairs < 1:
            raise QpiadError(f"k_pairs must be positive, got {self.k_pairs}")
        if self.max_concurrency < 1:
            raise QpiadError(
                f"max_concurrency must be at least 1, got {self.max_concurrency}"
            )


@dataclass(frozen=True)
class _Side:
    """One component query of a pair, with its joint-scoring statistics."""

    query: SelectionQuery
    is_rewritten: bool
    precision: float
    selectivity: float
    join_distribution: Mapping[Any, float]
    target_attribute: str | None = None
    afd: Afd | None = None

    def est_sel(self, join_value: Any) -> float:
        return (
            self.precision
            * self.selectivity
            * self.join_distribution.get(join_value, 0.0)
        )


@dataclass(frozen=True)
class _QueryPair:
    left: _Side
    right: _Side

    @property
    def precision(self) -> float:
        return self.left.precision * self.right.precision

    def estimated_selectivity(self) -> float:
        """Σ over shared join values of both sides' ``est_sel`` product.

        Added one by one in the left distribution's own order, so the last
        bits are the same in every process: a set's order would follow
        string hashing (``PYTHONHASHSEED``), and ``sum`` compensates its
        rounding on Python 3.12 and later.
        """
        right = self.right.join_distribution
        total = 0.0
        for value in self.left.join_distribution:
            if value in right:
                total += self.left.est_sel(value) * self.right.est_sel(value)
        return total


@dataclass(frozen=True)
class JoinedAnswer:
    """One joined tuple with its combined relevance assessment."""

    left_row: Row
    right_row: Row
    join_value: Any
    confidence: float
    certain: bool

    @property
    def row(self) -> Row:
        return self.left_row + self.right_row


@dataclass
class JoinResult:
    """Certain and ranked possible answers of a mediated join query.

    ``base_queries_issued`` counts the two base retrievals;
    ``component_queries_issued`` counts only the rewritten component
    calls.  The two always sum to ``stats.queries_issued`` — the base
    calls used to be double-counted into the component figure.
    """

    query: JoinQuery
    answers: list[JoinedAnswer] = field(default_factory=list)
    pairs_considered: int = 0
    pairs_issued: int = 0
    base_queries_issued: int = 0
    component_queries_issued: int = 0
    stats: RetrievalStats = field(default_factory=RetrievalStats)

    @property
    def certain(self) -> list[JoinedAnswer]:
        return [answer for answer in self.answers if answer.certain]

    @property
    def possible(self) -> list[JoinedAnswer]:
        return [answer for answer in self.answers if not answer.certain]


@dataclass(frozen=True)
class _Arrival:
    """One retrieved row entering the operator tree, tagged with its
    component query's side statistics and that side's position (0 is the
    complete query)."""

    side: _Side
    position: int
    row: Row


@dataclass(frozen=True)
class _JoinItem:
    """A post-filtered row ready for the symmetric hash join.

    ``position`` is the row's component among its side's pair components
    (0 is the complete query; rewriting never offers a query twice, so a
    position names one component).  ``join_value`` is the *effective*
    value — predicted when the stored one is NULL — and ``confidence`` is
    already discounted by the prediction probability; ``null_join``
    remembers whether the stored value was NULL, which disqualifies the
    tuple from certainty even on the complete×complete pair.
    """

    position: int
    row: Row
    join_value: Any
    confidence: float
    rewritten: bool
    null_join: bool


def _ranking_key(answer: JoinedAnswer) -> tuple[bool, float, str]:
    """The canonical total order of joined answers: certain first, then by
    confidence, with a value tie-break so ranking is deterministic at any
    executor width and any arrival interleaving."""
    return (
        not answer.certain,
        -answer.confidence,
        repr((answer.left_row, answer.right_row)),
    )


class JoinProcessor:
    """Processes two-way join queries over a pair of autonomous sources."""

    def __init__(
        self,
        left_source: Source,
        right_source: Source,
        left_knowledge: "KnowledgeBase | KnowledgeStore",
        right_knowledge: "KnowledgeBase | KnowledgeStore",
        config: JoinConfig | None = None,
        telemetry: Telemetry | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.left_source = left_source
        self.right_source = right_source
        self._left_store = as_store(left_knowledge)
        self._right_store = as_store(right_knowledge)
        self.config = config or JoinConfig()
        self._telemetry = telemetry
        # One planner per side: candidates come unlimited (k=None) because
        # the top-K budget applies to *pairs*, not components; the pair
        # ranker below applies it after joint scoring.
        component_config = PlannerConfig(
            alpha=self.config.alpha,
            k=None,
            classifier_method=self.config.classifier_method,
        )
        self._left_planner = QueryPlanner(
            self._left_store, component_config, cache=plan_cache, telemetry=telemetry
        )
        self._right_planner = QueryPlanner(
            self._right_store, component_config, cache=plan_cache, telemetry=telemetry
        )
        self._pair_ranker = Ranker(self.config.alpha, self.config.k_pairs)

    def query(self, join: JoinQuery) -> JoinResult:
        """Execute *join*, returning certain + ranked possible joined tuples.

        Drains the candidate stream of :meth:`stream_answers`, keeps the
        maximum-confidence version of each distinct ``(left_row,
        right_row)`` pair — a joined tuple's confidence must not depend
        on which rewritten component happened to deliver it first — and
        ranks with the canonical total order, so the answer list is
        identical at every executor width.
        """
        result = JoinResult(query=join)
        best: dict[tuple[Row, Row], JoinedAnswer] = {}
        for candidate in self.stream_answers(join, result=result):
            key = (candidate.left_row, candidate.right_row)
            held = best.get(key)
            if held is None or (candidate.certain, candidate.confidence) > (
                held.certain,
                held.confidence,
            ):
                best[key] = candidate
        result.answers = sorted(best.values(), key=_ranking_key)
        return result

    def stream_answers(
        self, join: JoinQuery, result: JoinResult | None = None
    ) -> Iterator[JoinedAnswer]:
        """Joined-answer *candidates*, yielded as matches arrive.

        The streaming interface: each candidate surfaces the moment both
        of its halves have been retrieved, so a caller sees first answers
        while slower component queries are still on the wire.  The same
        ``(left_row, right_row)`` pair can appear more than once (with
        different confidences) when several rewritten components retrieve
        the same row — callers that need the final ranked answer use
        :meth:`query`, which keeps the best and sorts at the edge.

        When *result* is given, its counters (pairs, base/component
        issuance, stats) are populated as the stream is drained.  The
        latency to the first candidate feeds the
        ``mediator.time_to_first_answer_seconds`` histogram.
        """
        if result is None:
            result = JoinResult(query=join)
        return timed_first(
            self._stream(join, result),
            self._telemetry,
            "mediator.time_to_first_answer_seconds",
        )

    def _stream(self, join: JoinQuery, result: JoinResult) -> Iterator[JoinedAnswer]:
        # Join processing predates graceful degradation: any failure raises.
        engine = RetrievalEngine(
            None,  # every planned query carries its own side's source
            result.stats,
            strict=True,
            max_concurrency=self.config.max_concurrency,
            telemetry=self._telemetry,
        )
        try:
            # Each source's worker pool serves its base and component calls;
            # leaving the block joins the workers, so none outlives the join.
            with engine:
                yield from self._join(join, result, engine)
        finally:
            # Counted once the pools have run every call they accepted.  A
            # base call that failed ended the join before its components,
            # so every call billed by then is a base call.
            if not result.base_queries_issued:
                result.base_queries_issued = result.stats.queries_issued
            result.component_queries_issued = (
                result.stats.queries_issued - result.base_queries_issued
            )

    def _join(
        self, join: JoinQuery, result: JoinResult, engine: RetrievalEngine
    ) -> Iterator[JoinedAnswer]:
        # One generation snapshot per side serves the whole join: pair
        # scoring, rewriting and NULL-fill prediction must read consistent
        # statistics even if a refresh swaps a store mid-stream.
        left_knowledge = self._left_store.current
        right_knowledge = self._right_store.current

        # Both base queries go through the engine too (in parallel when the
        # executor allows); outcomes arrive in plan order, left then right.
        bases: dict[int, Relation] = {}
        for step, retrieved in engine.stream(
            [
                PlannedQuery(
                    query=join.left,
                    kind=QueryKind.BASE,
                    rank=0,
                    source=self.left_source,
                ),
                PlannedQuery(
                    query=join.right,
                    kind=QueryKind.BASE,
                    rank=1,
                    source=self.right_source,
                ),
            ]
        ):
            bases[step.rank] = retrieved
        left_base, right_base = bases[0], bases[1]
        # Snapshot after the bases are billed: everything issued beyond
        # this point is a component.
        result.base_queries_issued = result.stats.queries_issued

        # The complete pair needs no call and no rewriting, so its
        # base×base answers stream before anything is planned: the first
        # answer waits only for the base retrievals.  It is joined
        # whenever its EstSel is non-zero, whatever its rank.
        left_complete = _complete_side(join.left, left_base, join.left_join_attribute)
        right_complete = _complete_side(
            join.right, right_base, join.right_join_attribute
        )
        complete_joined = (
            _QueryPair(left_complete, right_complete).estimated_selectivity() > 0
        )
        matched: set[tuple[int, int]] = {(0, 0)} if complete_joined else set()
        tree, fills = self._build_tree(
            join, matched, left_base, right_base, left_knowledge, right_knowledge
        )
        base_sides = {"left": left_complete, "right": right_complete}
        base_rows = chain(zip(repeat("left"), left_base), zip(repeat("right"), right_base))
        # Push base rows until the first candidate and hand it over; the
        # rest of that push and of the base rows waits until the
        # components are on the wire.
        candidates: Iterator[JoinedAnswer] = iter(())
        for which, row in base_rows:
            candidates = tree.push(which, _Arrival(base_sides[which], 0, row))
            first = next(candidates, None)
            if first is not None:
                yield first
                break

        left_sides = self._build_sides(
            left_complete, left_base, self._left_planner, left_knowledge,
            join.left_join_attribute,
        )
        right_sides = self._build_sides(
            right_complete, right_base, self._right_planner, right_knowledge,
            join.right_join_attribute,
        )
        result.pairs_considered = len(left_sides) * len(right_sides)
        selected = self._select_pairs(left_sides, right_sides)
        if complete_joined and (0, 0) not in selected:
            selected.append((0, 0))
        result.pairs_issued = len(selected)
        # Only pairs with a rewritten side join from here on: base rows
        # carry position 0 on both sides, so (0, 0) alone decides them.
        matched.update(selected)

        # Component rows arrive in call-completion order and flow straight
        # into the tree.  The stream starts its calls now, so at a width
        # above 1 they wait on the sources while the driver thread pushes
        # the remaining base rows; component rows still follow the last
        # base row, so at any width every base×base candidate comes first.
        plan, arrivals = self._component_plan(selected, left_sides, right_sides)
        components = engine.stream_tuples(plan)
        try:
            yield from candidates
            # A classifier batch here no longer delays the first answer, so
            # each side's remaining NULL join values are completed at once.
            rest = list(base_rows)
            for which, fill in fills.items():
                fill([row for side, row in rest if side == which])
            for which, row in rest:
                yield from tree.push(which, _Arrival(base_sides[which], 0, row))
            for step, row in components:
                which, position = arrivals[step.rank]
                sides = left_sides if which == "left" else right_sides
                yield from tree.push(which, _Arrival(sides[position], position, row))
        finally:
            components.close()

    def _select_pairs(
        self, left_sides: Sequence[_Side], right_sides: Sequence[_Side]
    ) -> list[tuple[int, int]]:
        """The top-K query pairs by F-measure, as ``(left, right)`` side
        positions in rank order, less those whose EstSel is zero."""
        pairs = {
            (i, j): _QueryPair(left, right)
            for i, left in enumerate(left_sides)
            for j, right in enumerate(right_sides)
        }
        est_sels = {key: pair.estimated_selectivity() for key, pair in pairs.items()}
        total = sum(est_sels.values())
        f_scores = {
            key: self._pair_ranker.f_measure(
                pair.precision, est_sels[key] / total if total > 0 else 0.0
            )
            for key, pair in pairs.items()
        }
        left_names = [repr(side.query) for side in left_sides]
        right_names = [repr(side.query) for side in right_sides]
        # Pair selection uses the shared ranker's canonical tie-break
        # (-F, -expected throughput, repr).  This path used to break F ties
        # on bare precision, silently diverging from every other pipeline.
        selected = self._pair_ranker.select_top(
            list(pairs),
            f=f_scores.__getitem__,
            throughput=lambda key: pairs[key].precision * est_sels[key],
            key=lambda key: left_names[key[0]] + right_names[key[1]],
        )
        # K is a ceiling: a pair whose estimate expects no joined tuple (a
        # side without sample support, or join-value distributions that
        # never meet) leaves the selection and issues nothing.
        return [key for key in selected if est_sels[key] > 0]

    # ------------------------------------------------------------------

    def _build_sides(
        self,
        complete: _Side,
        base_set: Relation,
        planner: QueryPlanner,
        knowledge: KnowledgeBase,
        join_attribute: str,
    ) -> list[_Side]:
        """The *complete* side plus all rewritten queries, as pair components."""
        sides = [complete]
        rewritten = planner.rewrite_candidates(
            complete.query, base_set, knowledge=knowledge
        )
        distributions = self._join_distributions(rewritten, knowledge, join_attribute)
        for candidate, distribution in zip(rewritten, distributions):
            sides.append(
                _Side(
                    query=candidate.query,
                    is_rewritten=True,
                    precision=candidate.estimated_precision,
                    selectivity=candidate.estimated_selectivity,
                    join_distribution=distribution,
                    target_attribute=candidate.target_attribute,
                    afd=candidate.afd,
                )
            )
        return sides

    def _join_distributions(
        self,
        candidates: Sequence[RewrittenQuery],
        knowledge: KnowledgeBase,
        join_attribute: str,
    ) -> "list[Mapping[Any, float]]":
        """P(join value | query) for each rewritten query (step 3a).

        When a rewritten query binds the join attribute with an equality,
        the distribution is a point mass.  When it hunts the join
        attribute, rewriting already scored its evidence against that
        classifier, and the posterior it kept is the distribution.  The
        others' NBC posteriors given their determining-set evidence come
        from one :meth:`KnowledgeBase.value_distributions` batch.
        """
        known = [_known_distribution(c, join_attribute) for c in candidates]
        unbound = [c.evidence for c, found in zip(candidates, known) if found is None]
        posteriors = iter(
            knowledge.value_distributions(
                join_attribute, unbound, self.config.classifier_method
            )
        )
        return [
            distribution if distribution is not None else next(posteriors)
            for distribution in known
        ]

    def _component_plan(
        self,
        selected: list[tuple[int, int]],
        left_sides: Sequence[_Side],
        right_sides: Sequence[_Side],
    ) -> tuple[list[PlannedQuery], list[tuple[str, int]]]:
        """The selected pairs' rewritten components, each planned once.

        Both sides' components go into one retrieval plan, so a
        concurrent executor, whose window is counted per source, keeps
        both sources busy at once.
        Complete queries are never planned — their result is the base
        set, already pushed into the tree.  Returns the plan and, per
        step, the side and position its rows arrive as.
        """
        plan: list[PlannedQuery] = []
        arrivals: list[tuple[str, int]] = []
        enqueued: set[tuple[str, int]] = set()
        sources = {"left": self.left_source, "right": self.right_source}

        def enqueue(which: str, side: _Side, position: int) -> None:
            if not side.is_rewritten or (which, position) in enqueued:
                return
            enqueued.add((which, position))
            plan.append(
                PlannedQuery(
                    query=side.query,
                    kind=QueryKind.REWRITTEN,
                    rank=len(plan),
                    estimated_precision=side.precision,
                    target_attribute=side.target_attribute,
                    explanation=side.afd,
                    source=sources[which],
                )
            )
            arrivals.append((which, position))

        for left, right in selected:
            enqueue("left", left_sides[left], left)
            enqueue("right", right_sides[right], right)
        return plan, arrivals

    def _build_tree(
        self,
        join: JoinQuery,
        matched: set[tuple[int, int]],
        left_base: Relation,
        right_base: Relation,
        left_knowledge: KnowledgeBase,
        right_knowledge: KnowledgeBase,
    ) -> tuple[OperatorTree, dict[str, Callable[[Sequence[Row]], None]]]:
        """The physical plan: per-side projection into a symmetric hash join.

        ::

                 hash join on join_value       (match: selected pairs)
                 /                     \\
            project                 project    (post-filter + NULL fill)
               |                       |
             "left"                 "right"

        Each projection post-filters rewritten rows (drop rows whose
        target attribute came back non-NULL, drop rows already in the base
        set) and resolves the effective join value, predicting NULLs; the
        join emits a candidate the moment a key matches across sides, and
        the match predicate restricts the cross product to the ``(left,
        right)`` side positions in *matched* while each component is
        still issued only once.  The tree reads *matched* live, so the
        caller may extend it while rows stream.

        Returns the tree and, per side, a hook that completes the NULL
        join values of rows about to be pushed in one classifier batch;
        a row no hook has seen is completed alone when it arrives.
        """
        left_index = self.left_source.schema.index_of(join.left_join_attribute)
        right_index = self.right_source.schema.index_of(join.right_join_attribute)

        def prepare(
            source: Source,
            knowledge: KnowledgeBase,
            join_attribute: str,
            join_index: int,
            base_set: Relation,
        ) -> tuple[Callable[[_Arrival], _JoinItem | None], Callable[[Sequence[Row]], None]]:
            # One frozen base-row set per side, shared by every component
            # arrival (this used to be rebuilt per retrieved relation).
            base_rows = frozenset(base_set)
            completed: dict[Row, _Completion] = {}

            def fill(rows: Sequence[Row]) -> None:
                nulls = [row for row in rows if is_null(row[join_index])]
                if nulls:
                    completed.update(
                        zip(nulls, self._completions(nulls, source, knowledge, join_attribute))
                    )

            def transform(arrival: _Arrival) -> _JoinItem | None:
                side, row = arrival.side, arrival.row
                if side.is_rewritten:
                    if side.target_attribute is not None and not is_null(
                        row[source.schema.index_of(side.target_attribute)]
                    ):
                        return None  # already a certain answer of the complete query
                    if row in base_rows:
                        return None
                confidence = side.precision if side.is_rewritten else 1.0
                value, adjusted = self._effective_join_value(
                    row, join_index, source, knowledge, join_attribute, confidence,
                    completed,
                )
                if value is None:
                    return None
                return _JoinItem(
                    position=arrival.position,
                    row=row,
                    join_value=value,
                    confidence=adjusted,
                    rewritten=side.is_rewritten,
                    null_join=is_null(row[join_index]),
                )

            return transform, fill

        def combine(left: _JoinItem, right: _JoinItem) -> JoinedAnswer:
            certain = (
                not left.rewritten
                and not right.rewritten
                and not left.null_join
                and not right.null_join
            )
            return JoinedAnswer(
                left_row=left.row,
                right_row=right.row,
                join_value=left.join_value,
                confidence=1.0 if certain else left.confidence * right.confidence,
                certain=certain,
            )

        def match(left: _JoinItem, right: _JoinItem) -> bool:
            return (left.position, right.position) in matched

        left_transform, left_fill = prepare(
            self.left_source, left_knowledge,
            join.left_join_attribute, left_index, left_base,
        )
        right_transform, right_fill = prepare(
            self.right_source, right_knowledge,
            join.right_join_attribute, right_index, right_base,
        )
        tree = OperatorTree(
            left_transform,
            right_transform,
            key=lambda item: item.join_value,
            combine=combine,
            match=match,
        )
        return tree, {"left": left_fill, "right": right_fill}

    def _effective_join_value(
        self,
        row: Row,
        join_index: int,
        source: Source,
        knowledge: KnowledgeBase,
        join_attribute: str,
        confidence: float,
        completed: Mapping[Row, _Completion],
    ) -> tuple[Any, float]:
        """The row's join value, predicting it when NULL (step 6).

        A NULL value is read from *completed* when a batch filled it, and
        otherwise completed on its own.  Returns ``(None, 0)`` when the
        value is NULL and unpredictable.  The confidence is discounted by
        the prediction probability.
        """
        value = row[join_index]
        if not is_null(value):
            return value, confidence
        if row in completed:
            completion = completed[row]
        else:
            [completion] = self._completions([row], source, knowledge, join_attribute)
        if completion is None:
            return None, 0.0
        predicted, probability = completion
        return predicted, confidence * probability

    def _completions(
        self,
        rows: Sequence[Row],
        source: Source,
        knowledge: KnowledgeBase,
        join_attribute: str,
    ) -> Sequence[_Completion]:
        """The most likely join value of each of *rows*, and its
        probability, from one classifier batch.

        A posterior is empty only when the classifier has no class at all,
        so one empty posterior means all are: every row is then
        unpredictable (``None``), as it would be completed alone.
        """
        try:
            return knowledge.completions(
                join_attribute,
                [dict(zip(source.schema.names, row)) for row in rows],
                self.config.classifier_method,
            )
        except MiningError:
            return [None] * len(rows)


def _complete_side(query: SelectionQuery, base_set: Relation, join_attribute: str) -> _Side:
    """The complete query as a pair component: its rows are the base set."""
    return _Side(
        query=query,
        is_rewritten=False,
        precision=1.0,
        selectivity=float(len(base_set)),
        join_distribution=_empirical_distribution(base_set, join_attribute),
    )


def _known_distribution(
    rewritten: RewrittenQuery, join_attribute: str
) -> "Mapping[Any, float] | None":
    """The join-value distribution *rewritten* already determines: the
    value it binds, or the posterior its rewriting kept when it hunts the
    join attribute; ``None`` when the classifier must be asked."""
    point = _point_mass(rewritten, join_attribute)
    if point is None and rewritten.target_attribute == join_attribute:
        return rewritten.posterior
    return point


def _point_mass(rewritten: RewrittenQuery, join_attribute: str) -> "dict[Any, float] | None":
    """The join value a rewritten query binds, as a point mass, or ``None``."""
    for conjunct in rewritten.query.conjuncts:
        if isinstance(conjunct, Equals) and conjunct.attribute == join_attribute:
            return {conjunct.value: 1.0}
    if join_attribute in rewritten.evidence:
        return {rewritten.evidence[join_attribute]: 1.0}
    return None


def _empirical_distribution(relation: Relation, attribute: str) -> dict[Any, float]:
    """Observed join-value distribution of a base result set."""
    counts = relation.value_counts(attribute)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {value: count / total for value, count in counts.items()}
