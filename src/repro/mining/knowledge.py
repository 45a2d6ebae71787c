"""The knowledge-mining module of Fig. 1: one facade over all learned statistics.

A :class:`KnowledgeBase` is mined once, off-line, from a (probed) sample of
an autonomous database.  It bundles the three kinds of knowledge QPIAD's
query reformulator consumes:

1. **attribute correlations** — pruned AFDs (and AKeys),
2. **value distributions** — AFD-enhanced Naive Bayes classifiers, and
3. **selectivity estimates** — expected result cardinalities.

Numeric attributes are transparently discretized for mining/classification
while queries and evidence keep raw values; the knowledge base owns the
bucket mapping so callers never see it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import MiningError
from repro.mining.afd import Afd, AKey
from repro.mining.classifiers import (
    CLASSIFIER_METHODS,
    ValueDistributionClassifier,
    build_classifier,
)
from repro.mining.discretization import Discretizer
from repro.mining.pruning import DEFAULT_DELTA, prune_noisy_afds
from repro.mining.selectivity import SelectivityEstimator
from repro.mining.tane import TaneConfig, mine_dependencies
from repro.relational.relation import Relation
from repro.relational.values import is_null

__all__ = ["MiningConfig", "KnowledgeBase", "KnowledgeLineage"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnowledgeLineage:
    """Provenance of a knowledge generation: how its sample was assembled.

    A freshly-mined generation has empty lineage.  Every refresh extends it
    with the digest of the folded batch, keeping the fingerprint of the
    epoch-0 base it all started from — enough to audit (and, with the
    original batches, replay) how the current sample came to be.  Lineage
    deliberately does **not** enter the content fingerprint: a refreshed
    generation and a from-scratch mine of the same union sample are
    content-identical and must fingerprint identically.
    """

    base_fingerprint: str | None = None
    batch_digests: tuple[str, ...] = ()

    def extended(self, batch_digest: str, base_fingerprint: str) -> "KnowledgeLineage":
        """Lineage after folding one more batch into this generation."""
        return KnowledgeLineage(
            self.base_fingerprint or base_fingerprint,
            self.batch_digests + (batch_digest,),
        )


@dataclass(frozen=True)
class MiningConfig:
    """All knobs of the knowledge-mining stage in one value object.

    Parameters
    ----------
    tane:
        Dependency-discovery configuration (β threshold, lattice depth...).
    pruning_delta:
        δ of the AKey-based noisy-AFD pruning (0.3 in the paper).
    classifier_method:
        Default classifier variant; the paper ships ``hybrid-one-afd``.
    smoothing_m:
        m-estimate weight for the Naive Bayes models.
    discretize_bins:
        Buckets per numeric attribute for mining (0 disables discretization).
    discretize_strategy:
        ``"width"`` (equal-width, default) or ``"quantile"`` (equal-mass)
        bucketing for numeric attributes.
    """

    tane: TaneConfig = field(default_factory=TaneConfig)
    pruning_delta: float = DEFAULT_DELTA
    classifier_method: str = "hybrid-one-afd"
    smoothing_m: float = 1.0
    discretize_bins: int = 8
    discretize_strategy: str = "width"

    def __post_init__(self) -> None:
        if self.classifier_method not in CLASSIFIER_METHODS:
            raise MiningError(
                f"unknown classifier method {self.classifier_method!r}; "
                f"expected one of {CLASSIFIER_METHODS}"
            )
        if self.discretize_strategy not in ("width", "quantile"):
            raise MiningError(
                f"unknown discretization strategy {self.discretize_strategy!r}"
            )


class KnowledgeBase:
    """One immutable *generation* of learned statistics.

    A knowledge base is frozen once constructed: the mined payload
    (``afds``, ``akeys``, sample, selectivity...) never changes, which is
    what lets the memoized :meth:`fingerprint` stay valid forever and the
    plan cache trust it as a version key.  Attribute rebinding after
    construction raises; the only mutable state is the internal
    classifier/training-view memo (derived caches whose contents are fully
    determined by the frozen payload, so they cannot affect identity).

    Refreshing knowledge therefore never mutates a generation — a
    :class:`~repro.mining.refresh.KnowledgeRefresher` re-mines the sample
    plus a batch into a *new* generation (``epoch`` one higher, lineage
    extended) and installs it atomically in a
    :class:`~repro.mining.store.KnowledgeStore`.

    Parameters
    ----------
    sample:
        The probed sample (raw values; may contain NULLs).
    database_size:
        Cardinality of the full database (advertised by the source or
        estimated via probing); drives ``SmplRatio``.
    config:
        Mining configuration; defaults match the paper.
    """

    #: Attributes that may be rebound after construction: only the lazy
    #: fingerprint memo, whose value is determined by the frozen payload.
    _MUTABLE_AFTER_FREEZE = frozenset({"_fingerprint"})

    _frozen: bool = False

    def __init__(
        self,
        sample: Relation,
        database_size: int,
        config: MiningConfig | None = None,
    ):
        if not len(sample):
            raise MiningError("cannot mine knowledge from an empty sample")
        self.config = config or MiningConfig()
        self.sample = sample
        self.database_size = database_size

        if self.config.discretize_bins:
            self._discretizer: Discretizer | None = Discretizer(
                sample,
                bins=self.config.discretize_bins,
                strategy=self.config.discretize_strategy,
            )
            mining_view = self._discretizer.transform(sample)
        else:
            self._discretizer = None
            mining_view = sample

        mined = mine_dependencies(mining_view, self.config.tane)
        self.all_afds: tuple[Afd, ...] = tuple(mined.afds)
        self.akeys: tuple[AKey, ...] = tuple(mined.akeys)
        self.afds: tuple[Afd, ...] = tuple(
            prune_noisy_afds(mined.afds, mined.akeys, self.config.pruning_delta)
        )
        self.selectivity = SelectivityEstimator.from_sample(sample, database_size)
        logger.debug(
            "mined %d AFDs (%d after pruning) and %d AKeys from %d sample tuples",
            len(self.all_afds), len(self.afds), len(self.akeys), len(sample),
        )
        self._classifiers: dict[tuple[str, str], ValueDistributionClassifier] = {}
        self._training_views: dict[str, Relation] = {}
        self._fingerprint: str | None = None
        self.epoch: int = 0
        self.lineage: KnowledgeLineage = KnowledgeLineage()
        self._frozen = True

    def __setattr__(self, name: str, value: Any) -> None:
        if self._frozen and name not in self._MUTABLE_AFTER_FREEZE:
            raise MiningError(
                f"KnowledgeBase is frozen; cannot rebind {name!r}. Refresh "
                "produces a new generation instead of mutating this one "
                "(see repro.mining.refresh)."
            )
        super().__setattr__(name, value)

    @classmethod
    def _from_parts(
        cls,
        *,
        config: MiningConfig,
        sample: Relation,
        database_size: int,
        discretizer: Discretizer | None,
        all_afds: tuple[Afd, ...],
        afds: tuple[Afd, ...],
        akeys: tuple[AKey, ...],
        selectivity: SelectivityEstimator,
        epoch: int = 0,
        lineage: KnowledgeLineage | None = None,
    ) -> "KnowledgeBase":
        """Assemble a generation from already-mined parts (refresh, load).

        Skips the mining pass entirely; the caller vouches that the parts
        are mutually consistent (i.e. equal to what ``__init__`` would have
        mined from *sample* under *config*).
        """
        knowledge = cls.__new__(cls)
        knowledge.config = config
        knowledge.sample = sample
        knowledge.database_size = database_size
        knowledge._discretizer = discretizer
        knowledge.all_afds = tuple(all_afds)
        knowledge.akeys = tuple(akeys)
        knowledge.afds = tuple(afds)
        knowledge.selectivity = selectivity
        knowledge._classifiers = {}
        knowledge._training_views = {}
        knowledge._fingerprint = None
        knowledge.epoch = epoch
        knowledge.lineage = lineage or KnowledgeLineage()
        knowledge._frozen = True
        return knowledge

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Deterministic content digest of everything planning reads.

        Hashes the sample (schema + rows, in order), the database size,
        the mining configuration, the mined and pruned AFDs, the AKeys,
        and the discretizer's bin edges — so two knowledge bases share a
        fingerprint exactly when they are content-identical.  A knowledge
        base saved with :func:`~repro.mining.persistence.save_knowledge`
        and loaded back fingerprints identically; re-mining from a
        different sample (or under different knobs) never does.  The plan
        cache keys on this value, which is what makes cached plans expire
        exactly when knowledge changes.

        Computed lazily and memoized: the knowledge base is immutable
        after construction, so the digest never goes stale.
        """
        if self._fingerprint is None:
            from repro.planner.fingerprint import knowledge_fingerprint

            self._fingerprint = knowledge_fingerprint(self)
        return self._fingerprint

    # ------------------------------------------------------------------
    # Attribute correlations
    # ------------------------------------------------------------------

    def afds_for(self, attribute: str) -> list[Afd]:
        """Pruned AFDs determining *attribute*, best first."""
        matches = [afd for afd in self.afds if afd.dependent == attribute]
        return sorted(matches, key=lambda afd: (-afd.confidence, len(afd.determining)))

    def best_afd(self, attribute: str) -> Afd | None:
        """Highest-confidence pruned AFD for *attribute*, or ``None``."""
        candidates = self.afds_for(attribute)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    # Value distributions
    # ------------------------------------------------------------------

    def classifier(
        self, attribute: str, method: str | None = None
    ) -> ValueDistributionClassifier:
        """The (cached) value-distribution classifier for *attribute*.

        Trained on a view where the *feature* columns are bucketed (robust
        likelihoods from a small sample) but the class column keeps its raw
        values, so posteriors range over actual domain values — which is
        what equality queries like ``Price = 20000`` need.
        """
        method = method or self.config.classifier_method
        key = (attribute, method)
        if key not in self._classifiers:
            self._classifiers[key] = build_classifier(
                method,
                self._training_view(attribute),
                attribute,
                self.afds,
                m=self.config.smoothing_m,
            )
        return self._classifiers[key]

    def _training_view(self, class_attribute: str) -> Relation:
        if self._discretizer is None:
            return self.sample
        if class_attribute not in self._training_views:
            self._training_views[class_attribute] = self._discretizer.transform(
                self.sample, exclude={class_attribute}
            )
        return self._training_views[class_attribute]

    def value_distributions(
        self,
        attribute: str,
        evidences: Sequence[Mapping[str, Any]],
        method: str | None = None,
    ) -> list[dict[Any, float]]:
        """Posterior over completions of *attribute* given each of *evidences*.

        This and :meth:`completions` are how every NULL gets completed.
        Evidence values are raw (un-bucketed); numeric ones are bucketed
        internally to match the classifier's feature space.  NULL entries
        are dropped, so a whole row, NULL target included, is valid
        evidence.  Keys of each returned distribution are *raw domain
        values* — including for numeric attributes, whose classifiers keep
        the class column raw — in the training sample's first-seen class
        order for the NBC-backed classifiers.

        The classifier scores the whole batch in one pass, computing each
        likelihood row once.  An empty batch builds no classifier.
        """
        if not evidences:
            return []
        prepared = [self._prepare_evidence(evidence) for evidence in evidences]
        return self.classifier(attribute, method).distributions(prepared)

    def value_distribution(
        self, attribute: str, evidence: Mapping[str, Any], method: str | None = None
    ) -> dict[Any, float]:
        """:meth:`value_distributions` of one evidence.

        Nothing in the package calls it.  It stays because perfbench's
        tracer times ``mining.nbc`` by patching this name.
        """
        return self.value_distributions(attribute, [evidence], method)[0]

    def completions(
        self,
        attribute: str,
        evidences: Sequence[Mapping[str, Any]],
        method: str | None = None,
    ) -> list[tuple[Any, float]]:
        """Most likely completion of *attribute* for each of *evidences*.

        Each entry is the argmax of the evidence's
        :meth:`value_distributions` posterior (a raw domain value) and its
        probability.  An exact tie goes to the tied completion that comes
        first in the posterior, which for the NBC-backed classifiers is the
        one seen first in the training sample.  Raises
        :class:`MiningError` when a posterior is empty.
        """
        completed: list[tuple[Any, float]] = []
        for posterior in self.value_distributions(attribute, evidences, method):
            if not posterior:
                raise MiningError(f"no distribution available for {attribute!r}")
            label = max(posterior, key=posterior.__getitem__)
            completed.append((label, posterior[label]))
        return completed

    def mining_label(self, attribute: str, value: Any) -> Any:
        """Map a raw value into mining space (its bucket label if numeric)."""
        return self._bucket(attribute, value)

    def is_discretized(self, attribute: str) -> bool:
        """Whether the attribute is bucketed for mining (numeric + covered)."""
        return self._discretizer is not None and self._discretizer.covers(attribute)

    def bucket_bounds(self, attribute: str, label: Any) -> tuple[float, float]:
        """The numeric interval behind a bucket label (see Discretizer)."""
        if self._discretizer is None:
            raise MiningError("knowledge base was mined without discretization")
        return self._discretizer.bin_bounds(attribute, label)

    def representative_value(self, attribute: str, label: Any) -> Any:
        """Map a mining-space completion label back to a raw value.

        For discretized numeric attributes, bucket labels map to their bin
        midpoint; everything else passes through unchanged.
        """
        if self._discretizer is not None:
            return self._discretizer.representative(attribute, label)
        return label

    def _prepare_evidence(self, evidence: Mapping[str, Any]) -> dict[str, Any]:
        prepared = {k: v for k, v in evidence.items() if not is_null(v)}
        if self._discretizer is not None:
            prepared = self._discretizer.transform_evidence(prepared)
        return prepared

    def _bucket(self, attribute: str, value: Any) -> Any:
        if self._discretizer is not None:
            return self._discretizer.bucket(attribute, value)
        return value

    def __repr__(self) -> str:
        return (
            f"KnowledgeBase({len(self.sample)} sample rows, "
            f"{len(self.afds)}/{len(self.all_afds)} AFDs after pruning, "
            f"{len(self.akeys)} AKeys)"
        )
