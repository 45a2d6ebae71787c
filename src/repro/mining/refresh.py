"""Versioned refresh of mined knowledge.

QPIAD mines its statistics once, offline; the autonomous sources it
mediates drift underneath.  This module keeps the mining layer current:

* :class:`KnowledgeRefresher` re-mines the union of the current
  generation's sample and a fresh batch, with the same routine a fresh
  :class:`~repro.mining.knowledge.KnowledgeBase` runs, and installs the
  result as a *new* generation (epoch + 1, lineage extended) in a
  :class:`~repro.mining.store.KnowledgeStore`.
* :meth:`KnowledgeRefresher.refresh_if_stale` is the drift-triggered
  policy: probe, :func:`~repro.mining.drift.detect_drift`, refresh, swap.

Because a refresh is a re-mine, refreshing a knowledge base mined on
``S`` with batches ``B1..Bn`` yields a generation whose :meth:`fingerprint`
equals a fresh mine of ``S ∪ B1..Bn`` by construction
(``tests/mining/test_refresh.py``; perfbench's ``mining.refresh_ms`` sizes
the cost).  Classifiers are not carried across: the new generation trains
them lazily on first use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import MiningError
from repro.mining.drift import DriftReport, detect_drift
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.relational.relation import Relation
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = ["KnowledgeRefresher", "RefreshResult"]


@dataclass(frozen=True)
class RefreshResult:
    """What one refresh attempt did.

    ``mode`` is ``"full"`` when a generation re-mined from the union was
    installed, or ``"skipped"`` when
    :meth:`KnowledgeRefresher.refresh_if_stale` found no drift and left
    the installed generation alone.
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
            mined = KnowledgeBase(base.sample.concat(batch), size, base.config)
            from repro.planner.fingerprint import relation_fingerprint

            refreshed = KnowledgeBase._from_parts(
                config=mined.config,
                sample=mined.sample,
                database_size=mined.database_size,
                discretizer=mined._discretizer,
                all_afds=mined.all_afds,
                afds=mined.afds,
                akeys=mined.akeys,
                selectivity=mined.selectivity,
                epoch=base.epoch + 1,
                lineage=base.lineage.extended(
                    relation_fingerprint(batch), base.fingerprint()
                ),
            )
            fingerprint = refreshed.fingerprint()
            self._store.install(refreshed)
            if span is not None:
                span.set(epoch=refreshed.epoch)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.count("knowledge.refresh_total")
            telemetry.count("knowledge.refresh_rows_folded", len(batch))
            telemetry.observe("knowledge.refresh_seconds", elapsed)
        return RefreshResult(
            knowledge=refreshed,
            mode="full",
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


def _check_database_size(database_size: "int | None") -> None:
    if database_size is not None and database_size < 1:
        raise MiningError(f"database_size must be at least 1, got {database_size}")
