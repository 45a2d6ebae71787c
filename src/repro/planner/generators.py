"""Composable rewrite generators: the candidate-producing planner stage.

A :class:`RewriteGenerator` turns a query, the rewriting bindings of its
base set and a knowledge generation into candidate rewritten queries.  The
planner composes one generator with the shared
:class:`~repro.planner.ranker.Ranker` and a gating policy to build a
retrieval plan; the generators and the planner are the only callers of
the generation machinery in :mod:`repro.core.rewriting`.

Generators are small frozen values holding only their knobs — the planner
hands each ``generate`` call its per-call knowledge snapshot — so they can
be shared across threads freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.core.rewriting import (
    RewritingBinding,
    RewrittenQuery,
    rewritten_from_bindings,
)
from repro.errors import QueryError, RewritingError
from repro.mining.afd import Afd
from repro.mining.knowledge import KnowledgeBase
from repro.query.query import SelectionQuery

if TYPE_CHECKING:
    from repro.sources.surface import Source

__all__ = [
    "AfdRewriteGenerator",
    "CorrelationRewriteGenerator",
    "RelaxationGenerator",
    "RewriteGenerator",
    "attribute_influence",
    "can_answer",
]


def can_answer(source: "Source | None", query: SelectionQuery) -> bool:
    """Whether *source*'s interface can express *query*; no source
    (``None``) is assumed fully capable."""
    return source is None or source.can_answer(query)


class RewriteGenerator(Protocol):
    """One way of producing candidate rewritten queries for a user query."""

    def generate(
        self,
        query: SelectionQuery,
        bindings: "Sequence[RewritingBinding]",
        knowledge: KnowledgeBase,
    ) -> "list[RewrittenQuery]": ...


@dataclass(frozen=True)
class AfdRewriteGenerator:
    """Section 4.2's AFD-based rewriting (one candidate per distinct
    determining-set combination of the base set).

    Reads the base set only through its
    :func:`~repro.core.rewriting.rewriting_bindings`, and the knowledge
    generation the planner snapshotted for this planning call.  An
    unrewritable query (no constrained attribute has a usable AFD) is a
    planning outcome, not an error: it yields an empty candidate list and
    the retrieval proceeds with certain answers only.
    """

    method: "str | None" = None

    def generate(
        self,
        query: SelectionQuery,
        bindings: "Sequence[RewritingBinding]",
        knowledge: KnowledgeBase,
    ) -> "list[RewrittenQuery]":
        try:
            return rewritten_from_bindings(query, bindings, knowledge, self.method)
        except RewritingError:
            return []


@dataclass(frozen=True)
class CorrelationRewriteGenerator:
    """Section 4.3's cross-source variant.

    Candidates are generated from the *correlated* source's knowledge but
    will be issued against the *deficient* target source, so anything the
    target's web form cannot express is filtered out before ranking —
    unlike the single-source pipeline, which ranks first and gates after,
    because here unissuable candidates would distort the recall
    normalization of a plan none of whose queries the target can run.
    """

    target: "Source"
    method: "str | None" = None

    def generate(
        self,
        query: SelectionQuery,
        bindings: "Sequence[RewritingBinding]",
        knowledge: KnowledgeBase,
    ) -> "list[RewrittenQuery]":
        candidates = AfdRewriteGenerator(self.method).generate(
            query, bindings, knowledge
        )
        return [
            candidate
            for candidate in candidates
            if can_answer(self.target, candidate.query)
        ]


def attribute_influence(afds: Sequence[Afd], attribute: str) -> float:
    """How strongly *attribute* determines others, per the mined AFDs.

    The sum of confidences of pruned AFDs whose determining set contains
    the attribute.  Attributes that determine nothing score 0 and are
    relaxed first.
    """
    return sum(afd.confidence for afd in afds if attribute in afd.determining)


@dataclass(frozen=True)
class RelaxationGenerator:
    """AFD-influence-guided relaxation (the QUIC direction, Section 7).

    Not a rewrite generator in the Protocol sense — relaxation produces
    weaker *whole queries*, not per-tuple rewritings — but it is the same
    planning shape: derive an ordered query list from the mined knowledge,
    deterministically, so the result is cacheable under the knowledge
    fingerprint.
    """

    afds: "tuple[Afd, ...]"
    max_dropped: "int | None" = None

    def influence(self, query: SelectionQuery) -> "dict[str, float]":
        return {
            attribute: attribute_influence(self.afds, attribute)
            for attribute in query.constrained_attributes
        }

    def generate(
        self, query: SelectionQuery
    ) -> "tuple[dict[str, float], tuple[SelectionQuery, ...]]":
        """The influence map and the relaxed queries, least-painful first.

        Queries dropping fewer conjuncts come first; among equal counts,
        the dropped set with the smallest total influence comes first.
        """
        conjuncts = query.conjuncts
        if len(conjuncts) < 2:
            raise QueryError(
                "relaxation needs at least two conjuncts; a single-conjunct "
                "query can only be relaxed to a full scan"
            )
        influence = self.influence(query)
        limit = (
            self.max_dropped if self.max_dropped is not None else len(conjuncts) - 1
        )
        limit = min(limit, len(conjuncts) - 1)

        relaxed: "list[tuple[int, float, SelectionQuery]]" = []
        for dropped_count in range(1, limit + 1):
            for dropped in combinations(conjuncts, dropped_count):
                kept = [c for c in conjuncts if c not in dropped]
                if not kept:
                    continue
                pain = sum(influence[a] for c in dropped for a in c.attributes())
                relaxed.append(
                    (
                        dropped_count,
                        pain,
                        SelectionQuery.conjunction(kept, query.relation),
                    )
                )
        relaxed.sort(key=lambda item: (item[0], item[1], repr(item[2])))
        return influence, tuple(q for __, __, q in relaxed)
