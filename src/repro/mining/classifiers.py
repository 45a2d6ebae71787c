"""AFD-enhanced classifiers (Sections 5.2–5.3).

AFDs act as feature selectors for the Naive Bayes value-distribution models.
The paper compares four ways to combine them; all four are implemented so
Table 3 can be reproduced:

* :class:`BestAfdClassifier` — features = determining set of the
  highest-confidence (pruned) AFD; falls back to all attributes when the
  attribute has no AFD at all.
* :class:`HybridOneAfdClassifier` — like Best-AFD, but ignores AFDs whose
  confidence is below a threshold (0.5 in the paper) and then uses all other
  attributes.  This is the variant QPIAD ships with.
* :class:`EnsembleAfdClassifier` — one NBC per AFD of the attribute;
  posteriors are combined by confidence-weighted averaging.
* :class:`AllAttributesClassifier` — plain NBC over every other attribute
  (no feature selection).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from repro.errors import ClassifierError
from repro.mining.afd import Afd
from repro.mining.nbc import NaiveBayesClassifier
from repro.relational.relation import Relation

__all__ = [
    "ValueDistributionClassifier",
    "BestAfdClassifier",
    "HybridOneAfdClassifier",
    "EnsembleAfdClassifier",
    "AllAttributesClassifier",
    "build_classifier",
    "CLASSIFIER_METHODS",
]

HYBRID_CONFIDENCE_FLOOR = 0.5
"""Paper's threshold below which an AFD is not trusted for feature selection."""


def _other_attributes(sample: Relation, attribute: str) -> list[str]:
    return [name for name in sample.schema.names if name != attribute]


class ValueDistributionClassifier(ABC):
    """Common interface: posterior value distributions for one attribute."""

    def __init__(self, attribute: str):
        self.attribute = attribute

    @abstractmethod
    def distribution(self, evidence: Mapping[str, Any]) -> dict[Any, float]:
        """Normalized posterior over completions of :attr:`attribute`."""

    def distributions(
        self, evidences: Sequence[Mapping[str, Any]]
    ) -> list[dict[Any, float]]:
        """:meth:`distribution` of each of *evidences*, in order.

        NBC-backed variants score the whole batch in one pass, sharing
        likelihood rows across evidences.
        """
        return [self.distribution(evidence) for evidence in evidences]

    @property
    @abstractmethod
    def feature_attributes(self) -> tuple[str, ...]:
        """The evidence attributes the classifier actually consults."""

    def predict(self, evidence: Mapping[str, Any]) -> tuple[Any, float]:
        """Argmax completion and its probability."""
        posterior = self.distribution(evidence)
        if not posterior:
            raise ClassifierError(f"empty posterior for {self.attribute!r}")
        best = max(posterior, key=lambda value: posterior[value])
        return best, posterior[best]

    def probability(self, value: Any, evidence: Mapping[str, Any]) -> float:
        return self.distribution(evidence).get(value, 0.0)


class _SingleNbcClassifier(ValueDistributionClassifier):
    """Base for variants backed by exactly one NBC."""

    def __init__(self, attribute: str, nbc: NaiveBayesClassifier):
        super().__init__(attribute)
        self._nbc = nbc

    @property
    def feature_attributes(self) -> tuple[str, ...]:
        return self._nbc.features

    def distribution(self, evidence: Mapping[str, Any]) -> dict[Any, float]:
        return self._nbc.distribution(evidence)

    def distributions(
        self, evidences: Sequence[Mapping[str, Any]]
    ) -> list[dict[Any, float]]:
        return self._nbc.distributions(evidences)


class BestAfdClassifier(_SingleNbcClassifier):
    """NBC over the determining set of the best AFD for the attribute."""

    def __init__(
        self,
        sample: Relation,
        attribute: str,
        afds: Sequence[Afd],
        m: float = 1.0,
    ):
        best = _best_afd_for(afds, attribute)
        if best is not None:
            features: Sequence[str] = best.determining
        else:
            features = _other_attributes(sample, attribute)
        self.afd = best
        super().__init__(attribute, NaiveBayesClassifier(sample, attribute, features, m=m))


class HybridOneAfdClassifier(_SingleNbcClassifier):
    """Best-AFD with a confidence floor; the paper's production choice.

    When the best AFD's confidence is below *confidence_floor* the AFD is
    deemed too weak for feature selection and all other attributes are used
    instead (Section 5.3).
    """

    def __init__(
        self,
        sample: Relation,
        attribute: str,
        afds: Sequence[Afd],
        m: float = 1.0,
        confidence_floor: float = HYBRID_CONFIDENCE_FLOOR,
    ):
        best = _best_afd_for(afds, attribute)
        if best is not None and best.confidence >= confidence_floor:
            features: Sequence[str] = best.determining
            self.afd = best
        else:
            features = _other_attributes(sample, attribute)
            self.afd = None
        super().__init__(attribute, NaiveBayesClassifier(sample, attribute, features, m=m))


class AllAttributesClassifier(_SingleNbcClassifier):
    """Plain NBC over every other attribute (no AFD feature selection)."""

    def __init__(self, sample: Relation, attribute: str, m: float = 1.0):
        features = _other_attributes(sample, attribute)
        super().__init__(attribute, NaiveBayesClassifier(sample, attribute, features, m=m))


class EnsembleAfdClassifier(ValueDistributionClassifier):
    """Confidence-weighted ensemble of one NBC per AFD of the attribute.

    Falls back to all-attributes NBC when the attribute has no AFD.
    """

    def __init__(
        self,
        sample: Relation,
        attribute: str,
        afds: Sequence[Afd],
        m: float = 1.0,
    ):
        super().__init__(attribute)
        relevant = [afd for afd in afds if afd.dependent == attribute]
        self._members: list[tuple[float, NaiveBayesClassifier]] = []
        if relevant:
            for afd in relevant:
                nbc = NaiveBayesClassifier(sample, attribute, afd.determining, m=m)
                self._members.append((afd.confidence, nbc))
        else:
            nbc = NaiveBayesClassifier(
                sample, attribute, _other_attributes(sample, attribute), m=m
            )
            self._members.append((1.0, nbc))

    @property
    def feature_attributes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for __, nbc in self._members:
            for feature in nbc.features:
                seen.setdefault(feature)
        return tuple(seen.keys())

    def distribution(self, evidence: Mapping[str, Any]) -> dict[Any, float]:
        return self.distributions([evidence])[0]

    def distributions(
        self, evidences: Sequence[Mapping[str, Any]]
    ) -> list[dict[Any, float]]:
        """Each evidence's members' posteriors, confidence-weighted and
        combined in member order."""
        total_weight = sum(weight for weight, __ in self._members)
        if total_weight <= 0:
            raise ClassifierError("ensemble has no positively weighted members")
        weights = [weight for weight, __ in self._members]
        batches = [nbc.distributions(evidences) for __, nbc in self._members]
        combined_batch: list[dict[Any, float]] = []
        for posteriors in zip(*batches):
            combined: dict[Any, float] = {}
            for weight, posterior in zip(weights, posteriors):
                for value, probability in posterior.items():
                    combined[value] = combined.get(value, 0.0) + weight * probability
            combined_batch.append(
                {value: score / total_weight for value, score in combined.items()}
            )
        return combined_batch


def _best_afd_for(afds: Sequence[Afd], attribute: str) -> Afd | None:
    candidates = [afd for afd in afds if afd.dependent == attribute]
    if not candidates:
        return None
    return min(candidates, key=lambda afd: (-afd.confidence, len(afd.determining)))


CLASSIFIER_METHODS = (
    "best-afd",
    "hybrid-one-afd",
    "ensemble",
    "all-attributes",
    "association-rules",
)
"""Names accepted by :func:`build_classifier`: Table 3's four variants plus
the §6.5 association-rule comparison baseline."""


def build_classifier(
    method: str,
    sample: Relation,
    attribute: str,
    afds: Sequence[Afd],
    m: float = 1.0,
) -> ValueDistributionClassifier:
    """Factory over the Table-3 variants (and the §6.5 baseline) by name."""
    if method == "best-afd":
        return BestAfdClassifier(sample, attribute, afds, m=m)
    if method == "hybrid-one-afd":
        return HybridOneAfdClassifier(sample, attribute, afds, m=m)
    if method == "ensemble":
        return EnsembleAfdClassifier(sample, attribute, afds, m=m)
    if method == "all-attributes":
        return AllAttributesClassifier(sample, attribute, m=m)
    if method == "association-rules":
        from repro.mining.association import AssociationRuleClassifier

        return AssociationRuleClassifier(sample, attribute)
    raise ClassifierError(
        f"unknown classifier method {method!r}; expected one of {CLASSIFIER_METHODS}"
    )
