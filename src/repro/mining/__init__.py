"""Knowledge mining: AFDs (TANE), Naive Bayes value distributions, selectivity."""

from repro.mining.afd import Afd, AKey
from repro.mining.classifiers import (
    CLASSIFIER_METHODS,
    AllAttributesClassifier,
    BestAfdClassifier,
    EnsembleAfdClassifier,
    HybridOneAfdClassifier,
    ValueDistributionClassifier,
    build_classifier,
)
from repro.mining.association import (
    AssociationRule,
    AssociationRuleClassifier,
    mine_association_rules,
)
from repro.mining.bayesnet import TreeAugmentedNaiveBayes
from repro.mining.imputation import ImputationReport, ImputedCell, impute
from repro.mining.drift import AfdDrift, DistributionDrift, DriftReport, detect_drift
from repro.mining.discretization import Discretizer, equal_width_edges, quantile_edges
from repro.mining.knowledge import KnowledgeBase, KnowledgeLineage, MiningConfig
from repro.mining.nbc import NaiveBayesClassifier
from repro.mining.persistence import load_knowledge, save_knowledge
from repro.mining.partitions import (
    Partition,
    g3_error,
    g3_stats,
    key_error,
    partition_by,
)
from repro.mining.pruning import DEFAULT_DELTA, is_noisy, prune_noisy_afds
from repro.mining.refresh import KnowledgeRefresher, RefreshResult
from repro.mining.selectivity import SelectivityEstimator
from repro.mining.store import KnowledgeStore, as_store
from repro.mining.tane import TaneConfig, TaneResult, mine_dependencies

__all__ = [
    "Afd",
    "AKey",
    "Partition",
    "partition_by",
    "g3_error",
    "g3_stats",
    "key_error",
    "TaneConfig",
    "TaneResult",
    "mine_dependencies",
    "DEFAULT_DELTA",
    "is_noisy",
    "prune_noisy_afds",
    "NaiveBayesClassifier",
    "ValueDistributionClassifier",
    "BestAfdClassifier",
    "HybridOneAfdClassifier",
    "EnsembleAfdClassifier",
    "AllAttributesClassifier",
    "build_classifier",
    "CLASSIFIER_METHODS",
    "SelectivityEstimator",
    "Discretizer",
    "equal_width_edges",
    "quantile_edges",
    "KnowledgeBase",
    "KnowledgeLineage",
    "MiningConfig",
    "KnowledgeStore",
    "as_store",
    "KnowledgeRefresher",
    "RefreshResult",
    "save_knowledge",
    "load_knowledge",
    "AssociationRule",
    "AssociationRuleClassifier",
    "mine_association_rules",
    "TreeAugmentedNaiveBayes",
    "impute",
    "ImputationReport",
    "ImputedCell",
    "detect_drift",
    "DriftReport",
    "AfdDrift",
    "DistributionDrift",
]
