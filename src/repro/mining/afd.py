"""Approximate functional dependencies and approximate keys.

Definition 3 of the paper: ``X ⇝ A`` is an AFD when it holds on all but a
small fraction of tuples; its *confidence* is ``1 − g3`` (Section 5.1,
following Kivinen & Mannila).  An *AKey* is an attribute set that is a key
on all but a small fraction of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MiningError

__all__ = ["Afd", "AKey"]


def _normalized_attrs(attributes) -> tuple[str, ...]:
    attrs = tuple(attributes)
    if not attrs:
        raise MiningError("an attribute set must be non-empty")
    if len(set(attrs)) != len(attrs):
        raise MiningError(f"duplicate attributes in {attrs!r}")
    return tuple(sorted(attrs))


@dataclass(frozen=True)
class Afd:
    """An approximate functional dependency ``determining ⇝ dependent``.

    Attributes
    ----------
    determining:
        The determining set ``dtrSet(dependent)``, stored sorted for value
        semantics.
    dependent:
        The attribute (approximately) determined.
    confidence:
        ``1 − g3`` over the mining sample, in ``[0, 1]``.
    support:
        Number of sample rows the confidence was computed over (rows
        non-NULL on ``determining ∪ {dependent}``).
    """

    determining: tuple[str, ...]
    dependent: str
    confidence: float
    support: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "determining", _normalized_attrs(self.determining))
        if self.dependent in self.determining:
            raise MiningError(
                f"dependent {self.dependent!r} cannot appear in its determining set"
            )
        if not 0.0 <= self.confidence <= 1.0 + 1e-9:
            raise MiningError(f"confidence out of range: {self.confidence}")

    def __str__(self) -> str:
        lhs = ", ".join(self.determining)
        return f"{{{lhs}}} ~> {self.dependent} (conf={self.confidence:.3f})"


@dataclass(frozen=True)
class AKey:
    """An approximate key with its ``1 − g3`` confidence."""

    attributes: tuple[str, ...]
    confidence: float
    support: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", _normalized_attrs(self.attributes))
        if not 0.0 <= self.confidence <= 1.0 + 1e-9:
            raise MiningError(f"confidence out of range: {self.confidence}")

    def is_subset_of(self, attributes: tuple[str, ...]) -> bool:
        """Whether this key's attributes are all contained in *attributes*."""
        return set(self.attributes) <= set(attributes)

    def __str__(self) -> str:
        return f"AKey{{{', '.join(self.attributes)}}} (conf={self.confidence:.3f})"
