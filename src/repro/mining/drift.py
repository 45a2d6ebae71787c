"""Detecting staleness of mined knowledge (statistics drift).

QPIAD mines its statistics once, off-line.  Autonomous web databases keep
changing underneath: inventory turns over, new models appear, correlations
shift.  A production mediator periodically probes a *fresh* sample and asks
whether the knowledge base still describes the source.  This module answers
that with two complementary checks:

* **dependency drift** — re-measure each mined AFD's ``g3`` confidence on
  the fresh sample and flag those whose confidence moved by more than a
  tolerance (or can no longer be measured);
* **distribution drift** — compare each attribute's value distribution via
  total variation distance between the old and fresh samples.

The output is a :class:`DriftReport` with a single ``is_stale`` verdict the
operator can alert on, plus per-finding detail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import MiningError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.partitions import g3_error, partition_by
from repro.relational.relation import Relation

__all__ = [
    "AfdDrift",
    "DistributionDrift",
    "DriftReport",
    "detect_drift",
    "drift_payload",
    "render_drift_text",
]


@dataclass(frozen=True)
class AfdDrift:
    """One AFD whose confidence moved beyond the tolerance."""

    determining: tuple[str, ...]
    dependent: str
    mined_confidence: float
    fresh_confidence: float | None  # None: not measurable on the fresh sample

    @property
    def shift(self) -> float:
        if self.fresh_confidence is None:
            return self.mined_confidence
        return abs(self.mined_confidence - self.fresh_confidence)


@dataclass(frozen=True)
class DistributionDrift:
    """One attribute whose value distribution moved."""

    attribute: str
    total_variation: float


@dataclass
class DriftReport:
    """Everything the drift check found."""

    afd_drifts: list[AfdDrift] = field(default_factory=list)
    distribution_drifts: list[DistributionDrift] = field(default_factory=list)
    afds_checked: int = 0
    attributes_checked: int = 0

    @property
    def is_stale(self) -> bool:
        return bool(self.afd_drifts or self.distribution_drifts)


def drift_payload(report: DriftReport) -> dict:
    """The report as a JSON-serializable dict (``qpiad drift --json``)."""
    return {
        "is_stale": report.is_stale,
        "afds_checked": report.afds_checked,
        "attributes_checked": report.attributes_checked,
        "afd_drifts": [
            {
                "determining": list(drift.determining),
                "dependent": drift.dependent,
                "mined_confidence": drift.mined_confidence,
                "fresh_confidence": drift.fresh_confidence,
                "shift": drift.shift,
            }
            for drift in report.afd_drifts
        ],
        "distribution_drifts": [
            {"attribute": drift.attribute, "total_variation": drift.total_variation}
            for drift in report.distribution_drifts
        ],
    }


def render_drift_text(report: DriftReport) -> str:
    """Human-readable rendering of a :class:`DriftReport`."""
    verdict = "STALE" if report.is_stale else "fresh"
    lines = [
        f"drift: {verdict} "
        f"({len(report.afd_drifts)} AFD / "
        f"{len(report.distribution_drifts)} distribution finding(s); "
        f"checked {report.afds_checked} AFDs, "
        f"{report.attributes_checked} attributes)"
    ]
    for afd in report.afd_drifts:
        lhs = ", ".join(afd.determining)
        if afd.fresh_confidence is None:
            moved = "unmeasurable on the fresh sample"
        else:
            moved = f"{afd.mined_confidence:.3f} -> {afd.fresh_confidence:.3f}"
        lines.append(f"  AFD {{{lhs}}} -> {afd.dependent}: confidence {moved}")
    for dist in report.distribution_drifts:
        lines.append(
            f"  distribution {dist.attribute}: "
            f"total variation {dist.total_variation:.3f}"
        )
    return "\n".join(lines)


def _total_variation(old: Relation, fresh: Relation, attribute: str) -> float:
    """Total variation distance between two samples' value distributions."""
    old_counts: Counter = old.value_counts(attribute)
    fresh_counts: Counter = fresh.value_counts(attribute)
    old_total = sum(old_counts.values())
    fresh_total = sum(fresh_counts.values())
    if old_total == 0 or fresh_total == 0:
        return 0.0
    values = set(old_counts) | set(fresh_counts)
    return 0.5 * sum(
        abs(old_counts[v] / old_total - fresh_counts[v] / fresh_total)
        for v in values
    )


def detect_drift(
    knowledge: KnowledgeBase,
    fresh_sample: Relation,
    confidence_tolerance: float = 0.15,
    distribution_tolerance: float = 0.25,
    min_support: int = 20,
) -> DriftReport:
    """Compare *knowledge* against a freshly probed sample.

    Parameters
    ----------
    knowledge:
        The (possibly stale) mined statistics.
    fresh_sample:
        A new sample probed from the source, same schema as the original.
    confidence_tolerance:
        Flag an AFD when its confidence moved by more than this.
    distribution_tolerance:
        Flag an attribute when the total variation distance between the old
        and fresh value distributions exceeds this.
    min_support:
        AFDs whose determining set covers fewer fresh rows than this are
        flagged as unmeasurable rather than compared on noise.
    """
    if fresh_sample.schema != knowledge.sample.schema:
        raise MiningError(
            "fresh sample schema differs from the knowledge base's sample; "
            "drift detection compares like with like"
        )
    report = DriftReport()

    # Use the SAME bucketing the knowledge base mined with, so AFD
    # confidences are measured in the same space.
    discretizer = knowledge._discretizer
    fresh_view = (
        discretizer.transform(fresh_sample) if discretizer is not None else fresh_sample
    )

    for afd in knowledge.afds:
        report.afds_checked += 1
        partition = partition_by(fresh_view, list(afd.determining))
        if partition.covered < min_support:
            report.afd_drifts.append(
                AfdDrift(afd.determining, afd.dependent, afd.confidence, None)
            )
            continue
        dependent = fresh_view.columnar().column(afd.dependent).codes
        confidence = 1.0 - g3_error(partition, dependent)
        if abs(confidence - afd.confidence) > confidence_tolerance:
            report.afd_drifts.append(
                AfdDrift(afd.determining, afd.dependent, afd.confidence, confidence)
            )

    old_view = knowledge.sample
    mining_old = (
        knowledge._discretizer.transform(old_view)
        if knowledge._discretizer is not None
        else old_view
    )
    for attribute in fresh_sample.schema.names:
        report.attributes_checked += 1
        distance = _total_variation(mining_old, fresh_view, attribute)
        if distance > distribution_tolerance:
            report.distribution_drifts.append(
                DistributionDrift(attribute, distance)
            )
    return report
