"""Incremental, versioned refresh of mined knowledge.

QPIAD mines its statistics once, offline; the autonomous sources it
mediates drift underneath.  This module turns the one-shot mining layer
into an incrementally-maintained one:

* :class:`KnowledgeRefresher` folds a fresh sample batch into the current
  knowledge generation — stripped-partition fold-in for TANE (histogram
  statistics + :meth:`Partition.extend`), ``g3`` confidence re-measurement
  from exact integer counts, NBC count-matrix addition over the batch only,
  and exact selectivity updates — and installs the result as a *new*
  generation (epoch + 1, lineage extended) in a
  :class:`~repro.mining.store.KnowledgeStore`.
* :meth:`KnowledgeRefresher.refresh_if_stale` is the drift-triggered
  policy: probe, :func:`~repro.mining.drift.detect_drift`, fold, swap.

The refresh invariant — tested in ``tests/mining/test_refresh.py``, with
perfbench's ``mining.refresh_ms`` sizing the cost — is that folding batches
``B1..Bn`` into a knowledge base mined on ``S`` yields a generation whose
:meth:`fingerprint` equals a full re-mine on ``S ∪ B1..Bn``: every folded
statistic is an exact integer fed through the same float arithmetic as the
one-shot kernels.  When that cannot be guaranteed — the discretizer's bin
edges moved — the refresher transparently falls back to a full re-mine:
more expensive, identical result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import MiningError
from repro.mining.discretization import Discretizer
from repro.mining.drift import DriftReport, detect_drift
from repro.mining.knowledge import KnowledgeBase
from repro.mining.pruning import prune_noisy_afds
from repro.mining.store import KnowledgeStore, as_store
from repro.mining.tane import MiningState, TaneResult, mine_dependencies_incremental
from repro.relational.relation import Relation
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = ["KnowledgeRefresher", "RefreshResult"]


@dataclass(frozen=True)
class RefreshResult:
    """What one refresh attempt did.

    ``mode`` is ``"incremental"`` (statistics folded), ``"full"`` (fell
    back to a complete re-mine of the union sample — same result, higher
    cost), or ``"skipped"`` (:meth:`KnowledgeRefresher.refresh_if_stale`
    found no drift and left the installed generation alone).
    """

    knowledge: KnowledgeBase
    mode: str
    refreshed: bool
    epoch: int
    fingerprint: str
    previous_fingerprint: str
    rows_folded: int
    seconds: float
    drift: "DriftReport | None" = None


class KnowledgeRefresher:
    """Folds sample batches into versioned knowledge generations.

    The refresher owns the mutable side of knowledge maintenance so the
    generations themselves can stay frozen: it keeps the incremental
    mining state (histograms + root partitions) between refreshes, builds
    each new generation, and installs it atomically in the shared
    :class:`KnowledgeStore`.  Mediators and planners that read through the
    same store pick up the new generation at their next per-query
    snapshot; their plan caches miss by construction because the
    fingerprint changed.

    One refresher should drive one store.  If the store is swapped by
    someone else between refreshes, the fingerprint guard notices and the
    mining state is re-seeded rather than silently folded onto the wrong
    base.
    """

    def __init__(
        self,
        knowledge: "KnowledgeBase | KnowledgeStore",
        *,
        telemetry: "Telemetry | None" = None,
    ):
        self._store = as_store(knowledge)
        self._telemetry = telemetry
        self._state: "MiningState | None" = None
        self._state_fingerprint: "str | None" = None

    @property
    def store(self) -> KnowledgeStore:
        """The store refreshed generations are installed into."""
        return self._store

    @property
    def knowledge(self) -> KnowledgeBase:
        """Snapshot of the currently-installed generation."""
        return self._store.current

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------

    def prime(self) -> None:
        """Pre-build incremental mining state from the current generation.

        Seeding walks the mining lattice once over the current sample to
        populate the fold-in histograms and root partitions; afterwards
        each refresh touches only its batch.  Without priming, the first
        refresh absorbs this cost (it seeds over the union instead).
        """
        base = self._store.current
        state = MiningState(self._mining_names(base))
        mine_dependencies_incremental(base._mining_view, base.config.tane, state)
        self._state = state
        self._state_fingerprint = base.fingerprint()

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(
        self, batch: Relation, *, database_size: "int | None" = None
    ) -> RefreshResult:
        """Fold *batch* into the installed generation and swap the result in.

        *batch* must share the sample's schema and be non-empty.  When
        *database_size* is given it replaces the advertised cardinality
        (sources grow along with their distributions); otherwise the base
        generation's size is kept.
        """
        base = self._store.current
        if not len(batch):
            raise MiningError("cannot refresh knowledge from an empty batch")
        if batch.schema != base.sample.schema:
            raise MiningError(
                "refresh batch schema does not match the mined sample's schema"
            )
        size = base.database_size if database_size is None else database_size
        telemetry = self._telemetry
        started = time.perf_counter()
        with maybe_span(
            telemetry, "knowledge refresh", SpanKind.REFRESH, rows=len(batch)
        ) as span:
            sample = base.sample.concat_encoded(batch)
            mode, mined, discretizer, mining_view = self._mine(base, batch, sample)
            afds = tuple(
                prune_noisy_afds(
                    list(mined.afds), list(mined.akeys), base.config.pruning_delta
                )
            )
            selectivity = base.selectivity.extended(batch, size, union=sample)
            from repro.planner.fingerprint import relation_fingerprint

            lineage = base.lineage.extended(
                relation_fingerprint(batch), base.fingerprint()
            )
            refreshed = KnowledgeBase._from_parts(
                config=base.config,
                sample=sample,
                database_size=size,
                discretizer=discretizer,
                mining_view=mining_view,
                all_afds=tuple(mined.afds),
                afds=afds,
                akeys=tuple(mined.akeys),
                selectivity=selectivity,
                epoch=base.epoch + 1,
                lineage=lineage,
            )
            if mode == "incremental":
                self._state_fingerprint = refreshed.fingerprint()
                self._prewarm_classifiers(base, refreshed, batch, discretizer)
            else:
                self._state = None
                self._state_fingerprint = None
            self._store.install(refreshed)
            if span is not None:
                span.set(mode=mode, epoch=refreshed.epoch)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.count("knowledge.refresh_total")
            telemetry.count(f"knowledge.refresh_{mode}")
            telemetry.count("knowledge.refresh_rows_folded", len(batch))
            telemetry.observe("knowledge.refresh_seconds", elapsed)
        return RefreshResult(
            knowledge=refreshed,
            mode=mode,
            refreshed=True,
            epoch=refreshed.epoch,
            fingerprint=refreshed.fingerprint(),
            previous_fingerprint=base.fingerprint(),
            rows_folded=len(batch),
            seconds=elapsed,
        )

    def refresh_if_stale(
        self,
        fresh_sample: Relation,
        *,
        confidence_tolerance: float = 0.15,
        distribution_tolerance: float = 0.25,
        min_support: int = 20,
        database_size: "int | None" = None,
    ) -> RefreshResult:
        """The drift-triggered policy: probe, detect, fold, swap.

        *fresh_sample* is a newly-probed batch from the source.  When
        :func:`detect_drift` finds the installed generation stale against
        it, the batch is folded in via :meth:`refresh`; otherwise nothing
        is installed and the result reports ``mode="skipped"``.  Either
        way the :class:`~repro.mining.drift.DriftReport` rides along.
        """
        base = self._store.current
        report = detect_drift(
            base,
            fresh_sample,
            confidence_tolerance=confidence_tolerance,
            distribution_tolerance=distribution_tolerance,
            min_support=min_support,
        )
        if not report.is_stale:
            if self._telemetry is not None:
                self._telemetry.count("knowledge.refresh_skipped_fresh")
            fingerprint = base.fingerprint()
            return RefreshResult(
                knowledge=base,
                mode="skipped",
                refreshed=False,
                epoch=base.epoch,
                fingerprint=fingerprint,
                previous_fingerprint=fingerprint,
                rows_folded=0,
                seconds=0.0,
                drift=report,
            )
        result = self.refresh(fresh_sample, database_size=database_size)
        return replace(result, drift=report)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _mining_names(base: KnowledgeBase) -> tuple[str, ...]:
        tane = base.config.tane
        return tuple(tane.attributes or base._mining_view.schema.names)

    def _mine(
        self, base: KnowledgeBase, batch: Relation, sample: Relation
    ) -> "tuple[str, TaneResult, Discretizer | None, Relation]":
        """Mine the union sample, incrementally when soundness allows.

        The incremental path requires the discretizer fitted on the union
        to produce the *same bin edges* as the base's — otherwise the
        historical rows' bucket labels would change and the folded
        histograms would describe a view that no longer exists.  Moved
        edges fall back to a full re-mine, which by the equivalence
        invariant produces the identical result.
        """
        config = base.config
        if config.discretize_bins:
            discretizer: "Discretizer | None" = Discretizer(
                sample,
                bins=config.discretize_bins,
                strategy=config.discretize_strategy,
            )
        else:
            discretizer = None
        base_discretizer = base._discretizer
        same_bins = (
            discretizer is None
            and base_discretizer is None
        ) or (
            discretizer is not None
            and base_discretizer is not None
            and discretizer.to_bins() == base_discretizer.to_bins()
        )
        if same_bins:
            if discretizer is not None:
                mining_view = base._mining_view.concat_encoded(
                    discretizer.transform(batch)
                )
            else:
                mining_view = sample
            mined = self._mine_incremental(base, mining_view)
            return "incremental", mined, discretizer, mining_view
        fresh = KnowledgeBase(sample, database_size=base.database_size, config=config)
        result = TaneResult(afds=list(fresh.all_afds), akeys=list(fresh.akeys))
        return "full", result, fresh._discretizer, fresh._mining_view

    def _mine_incremental(
        self, base: KnowledgeBase, mining_view: Relation
    ) -> TaneResult:
        state = self._state
        if state is None or self._state_fingerprint != base.fingerprint():
            # First refresh, or the store was swapped underneath us: the
            # saved state describes some other generation's rows.  Re-seed
            # over the union (one lattice walk; subsequent refreshes fold).
            state = MiningState(self._mining_names(base))
        mined = mine_dependencies_incremental(mining_view, base.config.tane, state)
        self._state = state
        return mined

    def _prewarm_classifiers(
        self,
        base: KnowledgeBase,
        refreshed: KnowledgeBase,
        batch: Relation,
        discretizer: "Discretizer | None",
    ) -> None:
        """Carry classifier caches across the swap via count-matrix addition.

        Only single-NBC wrappers whose feature selection is unchanged under
        the refreshed AFDs are carried over (their count matrices extend
        additively, so the result equals a lazy retrain on the union view).
        Everything else is simply dropped — the refreshed generation
        retrains it lazily on first use, which is equivalent by
        construction.  Training-view memos extend the same way.
        """
        from repro.mining.classifiers import (
            HYBRID_CONFIDENCE_FLOOR,
            AllAttributesClassifier,
            BestAfdClassifier,
            HybridOneAfdClassifier,
            _best_afd_for,
            _SingleNbcClassifier,
        )

        if discretizer is not None:
            for attribute, view in base._training_views.items():
                refreshed._training_views[attribute] = view.concat_encoded(
                    discretizer.transform(batch, exclude={attribute})
                )
        for (attribute, method), classifier in base._classifiers.items():
            if not isinstance(classifier, _SingleNbcClassifier):
                continue
            other = [
                name
                for name in refreshed.sample.schema.names
                if name != attribute
            ]
            afd = _best_afd_for(refreshed.afds, attribute)
            if isinstance(classifier, HybridOneAfdClassifier):
                if afd is not None and afd.confidence >= HYBRID_CONFIDENCE_FLOOR:
                    features = list(afd.determining)
                else:
                    afd = None
                    features = other
            elif isinstance(classifier, BestAfdClassifier):
                features = list(afd.determining) if afd is not None else other
            elif isinstance(classifier, AllAttributesClassifier):
                afd = None
                features = other
            else:
                continue
            if tuple(features) != classifier._nbc.features:
                continue  # feature selection moved: let it retrain lazily
            if discretizer is not None:
                batch_view = discretizer.transform(batch, exclude={attribute})
            else:
                batch_view = batch
            clone = object.__new__(type(classifier))
            clone.attribute = attribute
            if isinstance(classifier, (BestAfdClassifier, HybridOneAfdClassifier)):
                clone.afd = afd
            clone._nbc = classifier._nbc.extended(batch_view)
            refreshed._classifiers[(attribute, method)] = clone
