"""Naive Bayes classification with m-estimate smoothing (Section 5.2).

Given a tuple with a NULL on attribute ``A_m``, QPIAD estimates the
probability of each candidate completion ``v_i`` from the values ``x`` of a
feature set (the AFD's determining set):

    P(A_m = v_i | x) ∝ P(A_m = v_i) · Π_j P(x_j | A_m = v_i)

Likelihoods use the m-estimate of Mitchell (1997):

    P(x_j | v_i) = (n_c + m·p) / (n + m)

with ``p`` the uniform prior ``1/|domain(feature_j)|`` and ``m`` a smoothing
weight.  Features that are NULL in the evidence vector are skipped — the
standard treatment for missing features at prediction time.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.errors import ClassifierError
from repro.relational.relation import Relation
from repro.relational.values import is_null

if TYPE_CHECKING:
    from repro.relational.columnar import ColumnStore

__all__ = ["NaiveBayesClassifier"]


class NaiveBayesClassifier:
    """A categorical Naive Bayes model for one class attribute.

    Parameters
    ----------
    sample:
        Training relation; rows with NULL on *class_attribute* are skipped.
    class_attribute:
        The attribute whose missing values will be predicted.
    features:
        Feature attribute names (the AFD determining set, or all other
        attributes).  Rows may have NULL features; those cells simply do not
        contribute counts.
    m:
        The m-estimate smoothing weight (``m = 1`` by default; ``m = 0``
        degenerates to maximum likelihood with zero-probability pitfalls).
    """

    def __init__(
        self,
        sample: Relation,
        class_attribute: str,
        features: Sequence[str],
        m: float = 1.0,
    ):
        if class_attribute in features:
            raise ClassifierError(
                f"class attribute {class_attribute!r} cannot be its own feature"
            )
        if not features:
            raise ClassifierError("a Naive Bayes classifier requires at least one feature")
        if m < 0:
            raise ClassifierError(f"smoothing weight m must be non-negative, got {m}")

        self.class_attribute = class_attribute
        self.features = tuple(features)
        self.m = m

        self._train(sample.columnar())

        if not self._class_counts:
            raise ClassifierError(
                f"no training rows with a value for {class_attribute!r}"
            )
        self._total = sum(self._class_counts.values())
        self._domain_sizes = {
            name: max(1, size) for name, size in self._domain_sizes.items()
        }

    def _train(self, store: "ColumnStore") -> None:
        """Accumulate the counts via bincount over dictionary codes.

        Rows NULL on the class attribute are skipped; a NULL feature cell
        contributes no count.  Insertion order is first-seen row order:
        dictionary codes are minted in first-seen order and every class
        dictionary entry has a positive count, so building the class
        counter in code order gives the order a row-by-row scan would.
        """
        class_column = store.column(self.class_attribute)
        feature_columns = [store.column(name) for name in self.features]

        class_codes = class_column.codes
        class_values = class_column.values
        n_classes = len(class_values)
        class_valid = class_codes >= 0

        counts = np.bincount(class_codes[class_valid], minlength=n_classes)
        class_counts: Counter = Counter()
        for code, value in enumerate(class_values):
            class_counts[value] = int(counts[code])

        joint_counts: dict[str, dict[Any, Counter]] = {}
        domain_sizes: dict[str, int] = {}
        for name, column in zip(self.features, feature_columns):
            feature_codes = column.codes
            feature_values = column.values
            n_values = len(feature_values)
            both = class_valid & (feature_codes >= 0)
            if n_values == 0 or not bool(both.any()):
                joint_counts[name] = {}
                domain_sizes[name] = 0
                continue
            pairs = class_codes[both] * n_values + feature_codes[both]
            matrix = np.bincount(pairs, minlength=n_classes * n_values).reshape(
                n_classes, n_values
            )
            domain_sizes[name] = int((matrix.sum(axis=0) > 0).sum())
            per_class: dict[Any, Counter] = {}
            for class_code in range(n_classes):
                row_counts = matrix[class_code]
                nonzero = np.flatnonzero(row_counts)
                if nonzero.shape[0]:
                    per_class[class_values[class_code]] = Counter(
                        {
                            feature_values[position]: int(row_counts[position])
                            for position in nonzero.tolist()
                        }
                    )
            joint_counts[name] = per_class

        self._class_counts = class_counts
        self._joint_counts = joint_counts
        self._class_totals = _class_totals(joint_counts)
        self._domain_sizes = domain_sizes

    # ------------------------------------------------------------------

    @property
    def classes(self) -> tuple:
        """Candidate class values, most frequent first (ties: stable)."""
        return tuple(value for value, __ in self._class_counts.most_common())

    def prior(self, class_value: Any) -> float:
        """Smoothed prior P(class = value)."""
        count = self._class_counts.get(class_value, 0)
        k = len(self._class_counts)
        return (count + self.m / k) / (self._total + self.m) if k else 0.0

    def likelihood(self, feature: str, value: Any, class_value: Any) -> float:
        """m-estimate of P(feature = value | class = class_value)."""
        if feature not in self._joint_counts:
            raise ClassifierError(f"{feature!r} is not a feature of this classifier")
        per_class = self._joint_counts[feature].get(class_value, ())
        joint = per_class[value] if per_class and value in per_class else 0
        class_total = self._class_totals[feature].get(class_value, 0)
        p_uniform = 1.0 / self._domain_sizes[feature]
        return (joint + self.m * p_uniform) / (class_total + self.m)

    def distribution(self, evidence: Mapping[str, Any]) -> dict[Any, float]:
        """Normalized posterior over class values given *evidence*.

        *evidence* maps feature names to values; missing or NULL entries are
        skipped.  Extraneous keys are ignored so callers can pass whole
        tuples as dictionaries.  Keys follow the training sample's
        first-seen class order.
        """
        return self.distributions([evidence])[0]

    def distributions(
        self, evidences: Sequence[Mapping[str, Any]]
    ) -> list[dict[Any, float]]:
        """:meth:`distribution` of each of *evidences*, in one pass.

        Each distinct (feature, value) pair's likelihood row over the
        classes is computed once and shared by every evidence holding it.
        A class's score is its prior times the likelihoods in
        :attr:`features` order, and the scores are normalized by the
        built-in ``sum`` in class order, so each posterior is bit-identical
        to scoring its evidence alone.
        """
        classes = tuple(self._class_counts)
        priors = [self.prior(class_value) for class_value in classes]
        rows: dict[tuple[str, Any], list[float]] = {}
        posteriors: list[dict[Any, float]] = []
        for evidence in evidences:
            scores = priors
            for feature in self.features:
                value = evidence.get(feature)
                if value is None or is_null(value):
                    continue
                row = rows.get((feature, value))
                if row is None:
                    row = rows[(feature, value)] = [
                        self.likelihood(feature, value, class_value)
                        for class_value in classes
                    ]
                scores = [score * factor for score, factor in zip(scores, row)]
            total = sum(scores)
            if total <= 0.0:
                # All posteriors vanished (m = 0 with unseen evidence, or
                # long likelihood products that underflowed to zero); fall
                # back to the *smoothed* prior distribution so the
                # degenerate case stays consistent with :meth:`prior`.
                posteriors.append(dict(zip(classes, priors)))
            else:
                posteriors.append(
                    {
                        class_value: score / total
                        for class_value, score in zip(classes, scores)
                    }
                )
        return posteriors

    def predict(self, evidence: Mapping[str, Any]) -> tuple[Any, float]:
        """The argmax completion and its posterior probability.

        Ties are broken deterministically: higher posterior, then higher
        smoothed prior, then the lexicographically smallest value — never
        dict insertion order, which would make predictions depend on the
        order training rows happened to arrive in.  The mediator predicts
        through :meth:`KnowledgeBase.completions` instead, which gives an
        exact tie to the first-seen class.
        """
        posterior = self.distribution(evidence)
        best_value = min(
            posterior,
            key=lambda value: (-posterior[value], -self.prior(value), str(value)),
        )
        return best_value, posterior[best_value]

    def probability(self, class_value: Any, evidence: Mapping[str, Any]) -> float:
        """Posterior probability of one specific completion (0.0 if unseen)."""
        return self.distribution(evidence).get(class_value, 0.0)


def _class_totals(joint_counts: dict[str, dict[Any, Counter]]) -> dict[str, dict[Any, int]]:
    """Per feature, each class's number of rows with that feature present:
    the m-estimate's ``n``, summed once so :meth:`likelihood` is O(1)."""
    return {
        name: {class_value: sum(counter.values()) for class_value, counter in per_class.items()}
        for name, per_class in joint_counts.items()
    }
