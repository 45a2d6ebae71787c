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
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.errors import MiningError
from repro.mining.afd import Afd, AKey
from repro.mining.partitions import (
    Partition,
    class_counts,
    code_histogram_items,
    g3_stats,
    partition_from_codes,
)
from repro.relational.relation import Relation

#: Per-attribute dictionary-code arrays (``-1`` = NULL) being mined.
Codes = dict[str, NDArray[np.int64]]

__all__ = [
    "TaneConfig",
    "TaneResult",
    "MiningState",
    "mine_dependencies",
    "mine_dependencies_incremental",
]


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
    names = _validated_names(sample, config)
    return _walk(names, config, _KernelMeasurer(_codes(sample, names)))


def mine_dependencies_incremental(
    sample: Relation, config: TaneConfig | None, state: "MiningState"
) -> TaneResult:
    """Levelwise search over *sample* backed by folded sufficient statistics.

    *sample* must extend the relation *state* last saw by appended rows
    only; the new rows are folded into the tracked combination counts and
    root partitions first, then the same lattice walk as
    :func:`mine_dependencies` runs against the updated statistics.  Because
    every measurement is an exact integer statistic feeding the same float
    divisions as the partition kernels, the result — and therefore the
    knowledge fingerprint derived from it — is bit-identical to a full
    re-mine of *sample*.  Pruning decisions are re-derived on every walk
    (confidences can move in both directions as batches fold in), so no
    stale minimality or key-pruning state can leak across refreshes.
    """
    config = config or TaneConfig()
    names = _validated_names(sample, config)
    if state.names != tuple(names):
        raise MiningError(
            "mining state tracks attributes "
            f"{state.names!r}, not {tuple(names)!r}"
        )
    codes = _codes(sample, names)
    state.fold(codes, len(sample))
    measurer = _StateMeasurer(state, codes)
    result = _walk(names, config, measurer)
    measurer.save_roots()
    return result


def _validated_names(sample: Relation, config: TaneConfig) -> list[str]:
    names = list(config.attributes or sample.schema.names)
    if len(names) < 2:
        raise MiningError("dependency mining needs at least two attributes")
    for name in names:
        sample.schema.index_of(name)  # validate early
    return names


def _walk(
    names: list[str],
    config: TaneConfig,
    measurer: "_KernelMeasurer | _StateMeasurer",
) -> TaneResult:
    """The shared lattice walk, parameterized over how candidates are measured.

    Both measurers return exact integer statistics — ``(covered, classes)``
    for a key candidate and ``(support, kept)`` for an AFD candidate — and
    the walk owns the float arithmetic, so the one-shot and incremental
    paths cannot diverge in what they admit, prune, or score.
    """
    result = TaneResult()
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
            covered, class_count = measurer.key_stats(candidate)
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
                support, kept = measurer.afd_stats(candidate, dependent)
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


class _KernelMeasurer:
    """Measure candidates directly from partitions (the one-shot path)."""

    def __init__(self, codes: Codes):
        self._codes = codes
        self._partitions: dict[tuple[str, ...], Partition] = {}

    def key_stats(self, candidate: tuple[str, ...]) -> tuple[int, int]:
        partition = _partition_for(candidate, self._partitions, self._codes)
        return partition.covered, len(partition)

    def afd_stats(self, candidate: tuple[str, ...], dependent: str) -> tuple[int, int]:
        partition = self._partitions[candidate]
        return g3_stats(partition, self._codes[dependent])


class _SetStats:
    """Histogram of one tracked attribute set, plus walk-ready aggregates.

    ``support`` is the running sum of all combination counts, and ``kept``
    the running sum of per-prefix maxima — the ``g3`` "kept rows" numerator
    when the set is read as a joint ``X + (A,)``.  Both are maintained
    incrementally as batches fold in (counts only ever grow, so a prefix
    maximum moves monotonically and the delta is exact), which makes every
    candidate measurement during a lattice walk O(1) dictionary reads
    instead of a full histogram scan.
    """

    __slots__ = ("counts", "support", "kept", "_best")

    def __init__(self) -> None:
        self.counts: dict[tuple[int, ...], int] = {}
        self.support = 0
        self.kept = 0
        self._best: dict[tuple[int, ...], int] = {}

    def add(self, fresh: "Iterable[tuple[tuple[int, ...], int]]") -> None:
        """Fold batch histogram pairs in, keeping every aggregate consistent."""
        counts = self.counts
        best = self._best
        for combo, count in fresh:
            new = counts.get(combo, 0) + count
            counts[combo] = new
            self.support += count
            prefix = combo[:-1]
            old = best.get(prefix, 0)
            if new > old:
                self.kept += new - old
                best[prefix] = new


class MiningState:
    """Sufficient statistics carried between incremental mining walks.

    The state tracks, over all rows folded so far:

    * ``_sets`` — for every attribute tuple the walk has ever measured
      (candidate sets ``X`` and joints ``X + (A,)``), a :class:`_SetStats`:
      the histogram of value-code combinations to their row counts, plus
      incrementally maintained aggregates.  Key statistics are
      ``(support, len(counts))``; ``g3`` statistics are ``(support, kept)``.
    * ``roots`` — level-1 partitions over the full folded relation,
      advanced batch-by-batch via :meth:`Partition.extend`; they seed the
      prefix-refinement cache when the walk reaches a candidate it has not
      measured before (pruning frontiers shift as confidences move).

    Folding a batch touches only the batch rows (argsort kernels over the
    batch slice), never the historical rows — that is the whole point.
    Correctness rests on dictionary codes being minted first-seen: growing
    a relation never re-codes its existing prefix, so histograms keyed by
    code tuples stay valid across folds.
    """

    __slots__ = ("names", "rows", "roots", "_sets")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.rows = 0
        self.roots: dict[str, Partition] = {}
        self._sets: dict[tuple[str, ...], _SetStats] = {}

    def fold(self, codes: Codes, total_rows: int) -> None:
        """Fold rows ``self.rows..total_rows`` into every tracked statistic."""
        start = self.rows
        if total_rows < start:
            raise MiningError(
                f"mining state has folded {start} rows but the relation has "
                f"only {total_rows}; state can only move forward"
            )
        if total_rows == start:
            return
        batch = {name: codes[name][start:] for name in self.names}
        for key, stats in self._sets.items():
            stats.add(code_histogram_items([batch[name] for name in key]))
        for name, root in self.roots.items():
            self.roots[name] = root.extend([codes[name]], start)
        self.rows = total_rows


class _StateMeasurer:
    """Measure candidates from a :class:`MiningState`'s folded statistics.

    Histogram hits are pure dict arithmetic; misses (candidates this state
    never measured) are computed once from the full code arrays with the
    same partition kernels the one-shot path uses, then tracked so future
    folds keep them current.
    """

    def __init__(self, state: MiningState, codes: Codes):
        self._state = state
        self._codes = codes
        self._partitions: dict[tuple[str, ...], Partition] = {
            (name,): root for name, root in state.roots.items()
        }

    def key_stats(self, candidate: tuple[str, ...]) -> tuple[int, int]:
        stats = self._stats(candidate)
        return stats.support, len(stats.counts)

    def afd_stats(self, candidate: tuple[str, ...], dependent: str) -> tuple[int, int]:
        stats = self._stats(candidate + (dependent,))
        return stats.support, stats.kept

    def _stats(self, key: tuple[str, ...]) -> _SetStats:
        stats = self._state._sets.get(key)
        if stats is None:
            partition = _partition_for(key, self._partitions, self._codes)
            columns = [self._codes[name] for name in key]
            stats = _SetStats()
            stats.add(class_counts(partition, columns).items())
            self._state._sets[key] = stats
        return stats

    def save_roots(self) -> None:
        """Keep any level-1 partitions computed this walk for future folds."""
        for name in self._state.names:
            partition = self._partitions.get((name,))
            if partition is not None:
                self._state.roots[name] = partition


def _codes(sample: Relation, names: Sequence[str]) -> Codes:
    """The dictionary-code column of every mined attribute."""
    store = sample.columnar()
    return {name: store.column(name).codes for name in names}


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
