"""Deterministic fault schedules.

A chaos experiment is only evidence if it can be replayed: the same seed
must produce the same faults at the same points of the retrieval plan, or a
"the mediator survived" result is an anecdote (the same bar the repo's
``unseeded-rng`` lint rule sets for every figure).  :class:`FaultPlan`
therefore derives each fault decision from ``(seed, call_index)`` alone —
not from a shared RNG stream — so the schedule is independent of how many
random draws any single decision consumes and identical across processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import QpiadError

__all__ = ["FaultKind", "FaultDecision", "FaultEvent", "FaultPlan", "FaultStatistics"]


class FaultKind:
    """String constants naming the injectable failure modes."""

    UNAVAILABLE = "unavailable"  # raise SourceUnavailableError before any work
    CHURN = "churn"  # do the work, charge the budget, then fail anyway
    TRUNCATE = "truncate"  # return only a prefix of the result

    ALL = (UNAVAILABLE, CHURN, TRUNCATE)


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decreed for one source call."""

    kind: str | None  # a FaultKind constant, or None for a healthy call
    draw: float  # the uniform draw behind the decision (for diagnostics)

    @property
    def healthy(self) -> bool:
        return self.kind is None


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it actually happened."""

    index: int  # 0-based call index at the wrapper
    kind: str  # FaultKind constant
    operation: str  # which source method was hit
    detail: str = ""  # e.g. tuples dropped


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of source faults.

    Parameters
    ----------
    seed:
        Master seed; together with the call index it fully determines every
        decision.
    unavailable_rate:
        Probability a call fails fast with ``SourceUnavailableError``
        *before* reaching the source (no budget charged).
    churn_rate:
        Probability a call reaches the source — charging its query budget —
        and *then* fails, modelling a response lost on the wire after the
        server did the work.
    truncate_rate:
        Probability a call returns only a prefix of its result (a dropped
        connection mid-transfer); :attr:`truncate_fraction` of the tuples
        survive.
    spare_first:
        Number of initial calls that are never faulted.  Chaos tests use 1
        to let the base query through: QPIAD cannot return *anything*
        without certain answers, so a faulted call 0 fails the retrieval
        outright and tests nothing of the mediator's degradation.
    """

    seed: int
    unavailable_rate: float = 0.0
    churn_rate: float = 0.0
    truncate_rate: float = 0.0
    truncate_fraction: float = 0.5
    spare_first: int = 0

    def __post_init__(self) -> None:
        rates = {
            "unavailable_rate": self.unavailable_rate,
            "churn_rate": self.churn_rate,
            "truncate_rate": self.truncate_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise QpiadError(f"{name} must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0:
            raise QpiadError(
                f"fault rates must sum to at most 1, got {sum(rates.values())}"
            )
        if not 0.0 <= self.truncate_fraction <= 1.0:
            raise QpiadError(
                f"truncate_fraction must be in [0, 1], got {self.truncate_fraction}"
            )
        if self.spare_first < 0:
            raise QpiadError("spare_first must be non-negative")

    def decide(self, index: int) -> FaultDecision:
        """The fault decision for the *index*-th call, pure in (seed, index).

        Seeding a fresh generator from a string mixes the seed and index
        through SHA-512 (CPython's documented ``version=2`` behaviour), so
        the schedule survives process boundaries and hash randomisation.
        """
        rng = random.Random(f"qpiad-fault:{self.seed}:{index}")
        draw = rng.random()
        if index < self.spare_first:
            return FaultDecision(kind=None, draw=draw)
        threshold = 0.0
        for kind, rate in (
            (FaultKind.UNAVAILABLE, self.unavailable_rate),
            (FaultKind.CHURN, self.churn_rate),
            (FaultKind.TRUNCATE, self.truncate_rate),
        ):
            threshold += rate
            if draw < threshold:
                return FaultDecision(kind=kind, draw=draw)
        return FaultDecision(kind=None, draw=draw)

    def schedule(self, calls: int) -> list[str | None]:
        """The first *calls* decisions — handy for asserting replays."""
        return [self.decide(index).kind for index in range(calls)]


@dataclass
class FaultStatistics:
    """What one :class:`FaultInjectingSource` actually did."""

    calls: int = 0
    healthy: int = 0
    unavailable: int = 0
    churned: int = 0
    truncated: int = 0
    refused: int = 0  # calls the inner source raised on: not a fault
    tuples_dropped: int = 0
    events: list[FaultEvent] = field(default_factory=list)

    @property
    def faults_injected(self) -> int:
        return self.unavailable + self.churned + self.truncated

    def reset(self) -> None:
        self.calls = 0
        self.healthy = 0
        self.unavailable = 0
        self.churned = 0
        self.truncated = 0
        self.refused = 0
        self.tuples_dropped = 0
        self.events.clear()
