"""Versioned refresh of mined knowledge.

QPIAD mines its statistics once, offline; the autonomous sources it
mediates drift underneath.  This module keeps the mining layer current:

* :class:`KnowledgeRefresher` mines the union of the current generation's
  sample and a fresh batch and installs the result as a *new* generation
  (epoch + 1, lineage extended) in a
  :class:`~repro.mining.store.KnowledgeStore`.  What extends additively is
  extended from the batch alone — the sample's and mining view's columnar
  codes, the classifiers' training views and NBC count matrices, and the
  selectivity counters — while TANE re-walks the lattice over the union's
  codes.
* :meth:`KnowledgeRefresher.refresh_if_stale` is the drift-triggered
  policy: probe, :func:`~repro.mining.drift.detect_drift`, refresh, swap.

The refresh invariant — tested in ``tests/mining/test_refresh.py``, with
perfbench's ``mining.refresh_ms`` sizing the cost — is that refreshing a
knowledge base mined on ``S`` with batches ``B1..Bn`` yields a generation
whose :meth:`fingerprint` equals a full re-mine on ``S ∪ B1..Bn``: every
extended statistic is an exact integer fed through the same float
arithmetic as the one-shot kernels.  When the discretizer's bin edges move,
the historical rows re-bucket, so the whole union is transformed for
mining: more expensive, identical result.
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
from repro.mining.tane import TaneResult, mine_dependencies
from repro.relational.relation import Relation
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = ["KnowledgeRefresher", "RefreshResult"]


@dataclass(frozen=True)
class RefreshResult:
    """What one refresh attempt did.

    ``mode`` is ``"incremental"`` (the union kept the base's bin edges, so
    the mining view, training views and NBC counts extend by the batch's
    rows), ``"full"`` (the edges moved, so the whole union was re-bucketed
    for mining — same result, higher cost), or ``"skipped"``
    (:meth:`KnowledgeRefresher.refresh_if_stale` found no drift and left
    the installed generation alone).
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
    """Refreshes the knowledge installed in a store, one batch at a time.

    The refresher keeps no state of its own between refreshes, so the
    generations can stay frozen and a failed refresh leaves nothing
    behind: each refresh reads the store's current generation, builds the
    next one from it and the batch, and installs it atomically in the
    shared :class:`KnowledgeStore`.  Mediators and planners that read
    through the same store pick up the new generation at their next
    per-query snapshot; their plan caches miss by construction because
    the fingerprint changed.  A generation installed by someone else is
    simply the base the next refresh builds on.
    """

    def __init__(
        self,
        knowledge: "KnowledgeBase | KnowledgeStore",
        *,
        telemetry: "Telemetry | None" = None,
    ):
        self._store = as_store(knowledge)
        self._telemetry = telemetry

    @property
    def store(self) -> KnowledgeStore:
        """The store refreshed generations are installed into."""
        return self._store

    @property
    def knowledge(self) -> KnowledgeBase:
        """Snapshot of the currently-installed generation."""
        return self._store.current

    def prime(self) -> None:
        """Do nothing: refresh carries no mining state to pre-build.

        Kept only because perfbench's census-refresh set-up calls it and
        its tracer wraps it.
        """

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(
        self, batch: Relation, *, database_size: "int | None" = None
    ) -> RefreshResult:
        """Mine the installed generation's sample plus *batch*; swap it in.

        *batch* must share the sample's schema and be non-empty.  When
        *database_size* is given it replaces the advertised cardinality
        (sources grow along with their distributions) and must be at least
        1; otherwise the base generation's size is kept.
        """
        _check_database_size(database_size)
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
                self._prewarm_classifiers(base, refreshed, batch, discretizer)
            fingerprint = refreshed.fingerprint()
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
            fingerprint=fingerprint,
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
        """The drift-triggered policy: probe, detect, refresh, swap.

        *fresh_sample* is a newly-probed batch from the source.  When
        :func:`detect_drift` finds the installed generation stale against
        it, the batch is mined in via :meth:`refresh`; otherwise nothing
        is installed and the result reports ``mode="skipped"``.  Either
        way the :class:`~repro.mining.drift.DriftReport` rides along.
        """
        _check_database_size(database_size)
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
    def _mine(
        base: KnowledgeBase, batch: Relation, sample: Relation
    ) -> "tuple[str, TaneResult, Discretizer | None, Relation]":
        """Mine the union *sample* with one lattice walk.

        When the discretizer fitted on the union keeps the base's bin edges
        (``"incremental"``), the historical rows keep their bucket labels
        and codes, so the union's mining view is the base's extended by the
        transformed batch.  Moved edges (``"full"``) re-bucket historical
        rows, so the whole union is transformed.  Either way TANE measures
        the union's codes, which makes the result equal a fresh mine.
        """
        config = base.config
        if not config.discretize_bins:
            return "incremental", mine_dependencies(sample, config.tane), None, sample
        discretizer = Discretizer(
            sample, bins=config.discretize_bins, strategy=config.discretize_strategy
        )
        if (
            base._discretizer is not None
            and discretizer.to_bins() == base._discretizer.to_bins()
        ):
            mode = "incremental"
            mining_view = base._mining_view.concat_encoded(discretizer.transform(batch))
        else:
            mode = "full"
            mining_view = discretizer.transform(sample)
        return mode, mine_dependencies(mining_view, config.tane), discretizer, mining_view

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


def _check_database_size(database_size: "int | None") -> None:
    if database_size is not None and database_size < 1:
        raise MiningError(f"database_size must be at least 1, got {database_size}")
