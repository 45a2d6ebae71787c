"""Query selectivity estimation from the offline sample (Section 5.4).

The F-measure ordering of rewritten queries needs an estimate of how many
*relevant possible* tuples each rewritten query would retrieve from the full
autonomous database.  The paper estimates

    EstSel(Q) = SmplSel(Q) · SmplRatio(R) · PerInc(R)

where ``SmplSel(Q)`` is the number of sample tuples matching Q,
``SmplRatio(R)`` is the database-to-sample size ratio (estimated off-line by
issuing probe queries to both, or read off the source's advertised
cardinality), and ``PerInc(R)`` is the fraction of incomplete tuples
observed while building the sample.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import MiningError
from repro.query.executor import certain_count
from repro.query.predicates import Predicate
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["SampleMasks", "SelectivityEstimator"]


@dataclass
class SelectivityEstimator:
    """Estimates absolute result sizes of queries against the full database.

    Parameters
    ----------
    sample:
        The probed sample the estimate is computed over.
    sample_ratio:
        ``SmplRatio(R)``: database size / sample size.
    incomplete_fraction:
        ``PerInc(R)``: fraction of database tuples with at least one NULL,
        estimated from the sample.
    """

    sample: Relation
    sample_ratio: float
    incomplete_fraction: float

    def __post_init__(self) -> None:
        if self.sample_ratio <= 0:
            raise MiningError(f"sample_ratio must be positive, got {self.sample_ratio}")
        if not 0.0 <= self.incomplete_fraction <= 1.0:
            raise MiningError(
                f"incomplete_fraction must be in [0, 1], got {self.incomplete_fraction}"
            )

    @classmethod
    def from_sample(cls, sample: Relation, database_size: int) -> "SelectivityEstimator":
        """Build an estimator from a sample and the (advertised) database size."""
        if not len(sample):
            raise MiningError("cannot estimate selectivity from an empty sample")
        return cls(
            sample=sample,
            sample_ratio=database_size / len(sample),
            incomplete_fraction=sample.incomplete_fraction(),
        )

    def sample_selectivity(self, query: SelectionQuery) -> int:
        """``SmplSel(Q)``: how many sample tuples certainly match *query*."""
        return certain_count(query, self.sample)

    def estimate(self, query: SelectionQuery) -> float:
        """``EstSel(Q)``: expected number of *incomplete* tuples retrieved.

        This is the quantity the rewritten-query ordering consumes — the
        rewritten query's useful output is the tuples whose constrained
        attribute is missing (everything else is post-filtered).
        """
        return self.estimate_all([query])[0]

    def estimate_all(self, queries: Sequence[SelectionQuery]) -> list[float]:
        """:meth:`estimate` of each of *queries*, masking the sample once
        per distinct conjunct.

        A query's sample count ANDs its conjuncts' masks in conjunct
        order, which is what ``And.mask`` computes, so queries share the
        masks of the conjuncts they have in common.
        """
        store = self.sample.columnar()
        masks: dict[Predicate, "NDArray[np.bool_]"] = {}

        def mask_of(conjunct: Predicate) -> "NDArray[np.bool_]":
            mask = masks.get(conjunct)
            if mask is None:
                mask = masks[conjunct] = conjunct.mask(store)
            return mask

        return [
            self._scaled(int(reduce(operator.and_, map(mask_of, query.conjuncts)).sum()))
            for query in queries
        ]

    def _scaled(self, count: int) -> float:
        """``EstSel`` from ``SmplSel``: *count* scaled by ``sample_ratio``
        and then ``incomplete_fraction``."""
        return count * self.sample_ratio * self.incomplete_fraction


class SampleMasks:
    """Sample masks of distinct predicates, and ``EstSel`` of many
    conjunctions of them at once.

    Rewriting scores a binding's candidate queries here: each is its
    replacement predicates ANDed with conjuncts every candidate of the
    binding shares.  A predicate is masked once per table (equal
    predicates share one mask and one index); :meth:`estimate` ANDs the
    shared masks once and each column of replacement masks once for all
    candidates.  AND counts the same rows in any order, so every estimate
    equals :meth:`SelectivityEstimator.estimate` of the candidate's query.
    """

    def __init__(self, estimator: SelectivityEstimator):
        self._estimator = estimator
        self._indices: dict[Predicate, int] = {}
        self._masks: list["NDArray[np.bool_]"] = []

    def index(self, predicate: Predicate) -> int:
        """The index of *predicate*'s mask, taken on first use."""
        index = self._indices.get(predicate)
        if index is None:
            index = self._indices[predicate] = len(self._masks)
            self._masks.append(predicate.mask(self._estimator.sample.columnar()))
        return index

    def estimate(
        self, conjunctions: Sequence[Sequence[int]], shared: Sequence[int]
    ) -> list[float]:
        """``EstSel`` of each of *conjunctions* (equal-length rows of
        indices), every one also ANDed with the *shared* masks."""
        if not conjunctions:
            return []
        masks = np.stack(self._masks)
        columns = np.array(conjunctions, dtype=np.intp)
        rows = masks[columns[:, 0]]
        for column in columns.T[1:]:
            rows &= masks[column]
        if shared:
            rows &= reduce(operator.and_, [self._masks[index] for index in shared])
        return [self._estimator._scaled(count) for count in rows.sum(axis=1).tolist()]
