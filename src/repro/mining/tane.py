"""Levelwise (TANE-style) discovery of AFDs and AKeys from a sample.

Section 5.1 of the paper uses the TANE algorithm (Huhtala et al., ICDE'98)
to discover all approximate dependencies and approximate keys whose
confidence exceeds a threshold β.  This module implements the levelwise
lattice search with the two classic prunings adapted to the approximate
setting:

* **minimality** — once ``X ⇝ A`` meets the confidence threshold, supersets
  of ``X`` are not expanded for ``A`` (their confidence is at least as high
  but they make worse rewriting features: more constrained attributes, fewer
  matching tuples);
* **key pruning** — supersets of a discovered (approximate) key are keys too
  and are recorded without re-expansion.

Confidence is ``1 − g3`` computed on equivalence-class partitions
(:mod:`repro.mining.partitions`); rows NULL on the participating attributes
are excluded, which is essential because QPIAD mines from incomplete samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.typing import NDArray

from repro.errors import MiningError
from repro.mining.afd import Afd, AKey
from repro.mining.partitions import Partition, g3_stats, partition_from_codes
from repro.relational.relation import Relation

#: Per-attribute dictionary-code arrays (``-1`` = NULL) being mined.
Codes = dict[str, NDArray[np.int64]]

__all__ = ["TaneConfig", "TaneResult", "mine_dependencies"]


@dataclass(frozen=True)
class TaneConfig:
    """Tuning knobs of the dependency miner.

    Parameters
    ----------
    min_confidence:
        The β threshold of the paper: keep AFDs/AKeys with confidence ≥ β.
        The default 0.6 admits the moderately-approximate dependencies the
        paper's own examples rely on (e.g. ``{Make, Body Style} ⇝ Model``);
        the Best-AFD selection step still prefers the strongest one per
        attribute.
    max_determining_size:
        Maximum size of the determining set / key (lattice depth).  The
        paper's experiments use small determining sets; 3 is a practical
        default for web-database schemas.
    min_support:
        Minimum number of non-NULL rows a dependency must be measured over;
        guards against "dependencies" observed on a handful of rows in a
        sparse sample.
    attributes:
        Restrict mining to these attributes (default: all).
    expand_near_keys:
        By default a candidate set that turns out to be an (approximate)
        key is recorded and *not* used as a determining set — near-keys
        determine everything trivially and generalize to nothing.  Setting
        this flag mints those AFDs anyway; it exists so the AKey-pruning
        ablation can measure what the defense buys.
    """

    min_confidence: float = 0.6
    max_determining_size: int = 3
    min_support: int = 10
    attributes: tuple[str, ...] | None = None
    expand_near_keys: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.min_confidence <= 1.0:
            raise MiningError(f"min_confidence must be in (0, 1], got {self.min_confidence}")
        if self.max_determining_size < 1:
            raise MiningError("max_determining_size must be at least 1")


@dataclass
class TaneResult:
    """Everything the miner found."""

    afds: list[Afd] = field(default_factory=list)
    akeys: list[AKey] = field(default_factory=list)

    def afds_for(self, dependent: str) -> list[Afd]:
        """AFDs with *dependent* on the right-hand side, best first."""
        matches = [afd for afd in self.afds if afd.dependent == dependent]
        return sorted(matches, key=lambda afd: (-afd.confidence, len(afd.determining)))

    def best_afd(self, dependent: str) -> Afd | None:
        """The highest-confidence AFD for *dependent* (ties: smallest set)."""
        candidates = self.afds_for(dependent)
        return candidates[0] if candidates else None


def mine_dependencies(sample: Relation, config: TaneConfig | None = None) -> TaneResult:
    """Run the levelwise search over *sample* and return AFDs and AKeys.

    The search walks attribute-set levels 1..max_determining_size.  At each
    level it measures every candidate set ``X`` once as a key and once per
    dependent attribute ``A ∉ X`` (sharing ``Π_X`` across all dependents).
    """
    config = config or TaneConfig()
    names = list(config.attributes or sample.schema.names)
    if len(names) < 2:
        raise MiningError("dependency mining needs at least two attributes")
    for name in names:
        sample.schema.index_of(name)  # validate early
    store = sample.columnar()
    return _walk(names, config, {name: store.column(name).codes for name in names})


def _walk(names: list[str], config: TaneConfig, codes: Codes) -> TaneResult:
    """The lattice walk over the mined attributes' code columns.

    Each candidate is measured as exact integers — ``(covered, classes)``
    of ``Π_X`` as a key and ``(support, kept)`` of :func:`g3_stats` per
    dependent — and divided here, in one place.
    """
    result = TaneResult()
    partitions: dict[tuple[str, ...], Partition] = {}
    # Determining sets already satisfied per dependent: stop expanding them.
    satisfied: dict[str, list[frozenset[str]]] = {name: [] for name in names}
    discovered_keys: list[frozenset[str]] = []

    level: list[tuple[str, ...]] = [(name,) for name in sorted(names)]

    for depth in range(1, config.max_determining_size + 1):
        next_level: list[tuple[str, ...]] = []
        for candidate in level:
            candidate_set = frozenset(candidate)
            # Skip candidates that extend an already-found key: supersets of
            # keys are keys and make useless determining sets.
            if not config.expand_near_keys and any(
                key < candidate_set for key in discovered_keys
            ):
                continue
            partition = _partition_for(candidate, partitions, codes)
            covered, class_count = partition.covered, len(partition)
            if covered < config.min_support:
                continue

            key_error = (covered - class_count) / covered if covered else 0.0
            key_conf = 1.0 - key_error
            if key_conf >= config.min_confidence:
                result.akeys.append(
                    AKey(candidate, confidence=key_conf, support=covered)
                )
                discovered_keys.append(candidate_set)
                if not config.expand_near_keys:
                    # A (near-)key determines everything trivially; expanding
                    # it as a determining set would only mint useless AFDs.
                    continue

            expanded = False
            for dependent in names:
                if dependent in candidate_set:
                    continue
                if any(prior <= candidate_set for prior in satisfied[dependent]):
                    continue  # a subset already determines this attribute
                support, kept = g3_stats(partition, codes[dependent])
                error = (support - kept) / support if support else 0.0
                confidence = 1.0 - error
                if support < config.min_support:
                    continue
                if confidence >= config.min_confidence:
                    result.afds.append(
                        Afd(candidate, dependent, confidence=confidence, support=support)
                    )
                    satisfied[dependent].append(candidate_set)
                else:
                    expanded = True
            if expanded and depth < config.max_determining_size:
                next_level.append(candidate)

        if depth >= config.max_determining_size:
            break
        level = _generate_next_level(next_level)

    result.afds.sort(key=lambda afd: (afd.dependent, -afd.confidence, len(afd.determining)))
    result.akeys.sort(key=lambda key: (-key.confidence, key.attributes))
    return result


def _partition_for(
    attributes: tuple[str, ...],
    cache: dict[tuple[str, ...], Partition],
    codes: Codes,
) -> Partition:
    """Compute (or fetch) ``Π_X``, refining a cached prefix when possible."""
    if attributes in cache:
        return cache[attributes]
    prefix = attributes[:-1]
    if prefix in cache:
        partition = cache[prefix].refine(codes[attributes[-1]])
    else:
        partition = partition_from_codes([codes[name] for name in attributes])
    cache[attributes] = partition
    return partition


def _generate_next_level(level: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Candidate generation à la Apriori: join sets sharing a prefix."""
    next_level: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    current = {candidate for candidate in level}
    ordered = sorted(current)
    for first, second in combinations(ordered, 2):
        if first[:-1] != second[:-1]:
            continue
        merged = tuple(sorted(set(first) | set(second)))
        if merged in seen:
            continue
        # All (k-1)-subsets must have been expandable; approximate check:
        # require every subset obtained by dropping one element to be present.
        subsets_ok = all(
            tuple(sorted(set(merged) - {attr})) in current for attr in merged
        )
        if subsets_ok:
            seen.add(merged)
            next_level.append(merged)
    return next_level
