"""The shared F-measure ranker (Section 4.1/4.2).

Two orthogonal quantities rate a rewritten query: its expected *precision*
(probability the retrieved tuples answer the original query) and its
*selectivity* (how many tuples it brings in).  QPIAD trades them off with
the IR F-measure:

    F_α = (1 + α) · P · R / (α · P + R)

where the recall ``R`` of a query is its expected throughput
(precision × selectivity) normalized by the cumulative expected throughput
of all candidates.  ``α = 0`` reduces to precision-only ordering; larger α
weights recall more.

This module is the *one* place ordering and tie-breaking policy lives.
Every pipeline — selection rewriting, correlated-source retrieval,
aggregate processing, join-pair selection — ranks through it, so the
policy cannot drift between mediators again (it had: the join processor
once broke F-measure ties on bare precision instead of expected
throughput).  The canonical tie-break for top-K selection is::

    (-F_α, -expected throughput, canonical repr)

and the survivors of a selection plan are issued in precision order
(``-precision, -throughput, repr``) so each returned tuple inherits its
retrieving query's precision as its rank — no per-tuple re-ranking needed
(step 2c).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence, TypeVar

from repro.core.rewriting import RewrittenQuery
from repro.errors import QpiadError

__all__ = ["Ranker", "f_measure"]

T = TypeVar("T")


def f_measure(precision: float, recall: float, alpha: float) -> float:
    """The weighted harmonic mean used for query ordering.

    Degenerate cases: with ``α = 0`` the measure reduces exactly to the
    precision; when both terms are zero the score is zero.
    """
    if alpha < 0:
        raise QpiadError(f"alpha must be non-negative, got {alpha}")
    if alpha == 0:
        return precision
    denominator = alpha * precision + recall
    if denominator <= 0.0:
        return 0.0
    return (1.0 + alpha) * precision * recall / denominator


@dataclass(frozen=True)
class Ranker:
    """One pipeline's ranking policy: α plus the top-K budget.

    A small value object so every planner stage — and anything else that
    needs F-measure selection over jointly scored items, like the join
    processor's query pairs — applies *identical* scoring, selection, and
    tie-breaking.
    """

    alpha: float = 0.0
    k: "int | None" = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise QpiadError(f"alpha must be non-negative, got {self.alpha}")
        if self.k is not None and self.k < 0:
            raise QpiadError(f"k must be non-negative, got {self.k}")

    def f_measure(self, precision: float, recall: float) -> float:
        return f_measure(precision, recall, self.alpha)

    def score(self, rewritten: Sequence[RewrittenQuery]) -> "list[RewrittenQuery]":
        """A copy of every rewritten query with its estimated recall and
        F-measure attached; *rewritten* is left as it was.

        Recall is expected throughput normalized by the cumulative expected
        throughput over *all* candidates (the paper's estimate of the
        fraction of reachable relevant answers each query contributes).
        :meth:`order` computes the same scores but copies only the
        candidates it keeps.
        """
        __, recalls, f_measures = self._ordering_scores(rewritten)
        return [
            query.with_ordering_scores(recall, f)
            for query, recall, f in zip(rewritten, recalls, f_measures)
        ]

    def _ordering_scores(
        self, rewritten: Sequence[RewrittenQuery]
    ) -> "tuple[list[float], list[float], list[float]]":
        """Each candidate's expected throughput, estimated recall and
        F-measure (see :meth:`score`)."""
        throughputs = [query.expected_throughput for query in rewritten]
        total_throughput = sum(throughputs)
        if total_throughput > 0:
            recalls = [throughput / total_throughput for throughput in throughputs]
        else:
            recalls = [0.0] * len(throughputs)
        f_measures = [
            self.f_measure(query.estimated_precision, recall)
            for query, recall in zip(rewritten, recalls)
        ]
        return throughputs, recalls, f_measures

    def order(self, rewritten: Sequence[RewrittenQuery]) -> "list[RewrittenQuery]":
        """Select and order the rewritten queries to issue.

        1. Score every candidate with the F-measure at this α, into lists:
           no candidate is copied.
        2. Keep the top-K by F-measure (``k = None`` keeps all) under
           :meth:`select_top`'s tie-break, so a candidate's query is read
           (and, for a candidate :func:`rewritten_from_bindings` scored,
           built) for its ``repr`` only when it ties another on F-measure
           and expected throughput.
        3. Attach recall and F-measure to the survivors alone, and re-order
           them by estimated precision, descending, so that issuing them
           in order yields answers in rank order (step 2c).  Ties break on
           expected throughput, then on the query's repr.
        """
        throughputs, recalls, f_measures = self._ordering_scores(rewritten)
        kept = self.select_top(
            range(len(rewritten)),
            f=f_measures.__getitem__,
            throughput=throughputs.__getitem__,
            key=lambda position: repr(rewritten[position].query),
        )
        selected = [
            rewritten[position].with_ordering_scores(
                recalls[position], f_measures[position]
            )
            for position in kept
        ]
        return sorted(
            selected,
            key=lambda q: (-q.estimated_precision, -q.expected_throughput, repr(q.query)),
        )

    def select_top(
        self,
        items: Sequence[T],
        *,
        f: Callable[[T], float],
        throughput: Callable[[T], float],
        key: Callable[[T], str],
    ) -> "list[T]":
        """Top-K of *items* under the canonical selection tie-break.

        The order is ``(-F, -expected throughput, canonical key)``, and the
        first K are kept.  :meth:`order` applies it to rewritten queries;
        the join processor's query pairs use it directly.  *key* is called
        only for items that tie another on F and throughput within reach
        of the K-th place: each such group is ordered by key in full, so
        the group that straddles the K-th place keeps the same members a
        sort on all three would keep.
        """
        scores = [(-f(item), -throughput(item)) for item in items]
        ranked = sorted(range(len(items)), key=scores.__getitem__)
        limit = len(ranked) if self.k is None else self.k
        top: "list[T]" = []
        for __, group in groupby(ranked, key=scores.__getitem__):
            if len(top) >= limit:
                break
            tied = [items[position] for position in group]
            if len(tied) > 1:
                tied.sort(key=key)
            top.extend(tied)
        return top[:limit]
