"""Injecting controlled incompleteness: the paper's GD → ED protocol (§6.2).

Evaluation needs ground truth for missing values, so the paper builds its
experimental datasets in two steps: extract complete tuples (the *ground
truth dataset*, GD), then randomly pick 10% of the tuples and NULL one
randomly chosen attribute in each (the *experimental dataset*, ED).

:class:`IncompleteDataset` keeps GD and ED row-aligned and records exactly
which cells were masked, which is what the precision/recall oracle consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import QpiadError
from repro.relational.relation import Relation
from repro.relational.values import NULL

__all__ = ["MaskedCell", "IncompleteDataset", "make_incomplete"]


@dataclass(frozen=True)
class MaskedCell:
    """One cell that was NULLed out: its row, attribute and true value."""

    row_index: int
    attribute: str
    true_value: object


@dataclass
class IncompleteDataset:
    """A ground-truth relation and its row-aligned incomplete counterpart."""

    complete: Relation
    incomplete: Relation
    masked: tuple[MaskedCell, ...]

    def __post_init__(self) -> None:
        if len(self.complete) != len(self.incomplete):
            raise QpiadError("GD and ED must have the same number of rows")

    def true_value(self, row_index: int, attribute: str) -> object:
        """Ground-truth value of any cell (masked or not)."""
        return self.complete.value(self.complete.rows[row_index], attribute)


def make_incomplete(
    complete: Relation,
    incomplete_fraction: float = 0.10,
    seed: int = 97,
    maskable_attributes: Sequence[str] | None = None,
    attribute_weights: Mapping[str, float] | None = None,
) -> IncompleteDataset:
    """Apply the paper's masking protocol to a complete relation.

    Parameters
    ----------
    complete:
        The ground-truth relation (all cells present).
    incomplete_fraction:
        Fraction of tuples to make incomplete (paper: 10%, described as
        conservative versus Table 1's live statistics).
    seed:
        Seed of the dedicated random generator.
    maskable_attributes:
        Attributes eligible for masking (default: all).
    attribute_weights:
        Optional relative masking weights per attribute, so experiments can
        skew incompleteness towards e.g. ``body_style`` as observed in
        Table 1.  Attributes absent from the mapping get weight 1.
    """
    if not 0.0 < incomplete_fraction < 1.0:
        raise QpiadError(
            f"incomplete_fraction must be in (0, 1), got {incomplete_fraction}"
        )
    if not len(complete):
        raise QpiadError("cannot inject incompleteness into an empty relation")
    names = list(maskable_attributes or complete.schema.names)
    for name in names:
        complete.schema.index_of(name)  # validate
    weights = [float((attribute_weights or {}).get(name, 1.0)) for name in names]
    if any(weight < 0 for weight in weights) or not any(weights):
        raise QpiadError("attribute weights must be non-negative and not all zero")

    rng = random.Random(seed)
    count = max(1, round(len(complete) * incomplete_fraction))
    chosen = rng.sample(range(len(complete)), min(count, len(complete)))

    rows = [list(row) for row in complete.rows]
    masked: list[MaskedCell] = []
    for row_index in chosen:
        attribute = rng.choices(names, weights=weights, k=1)[0]
        column = complete.schema.index_of(attribute)
        masked.append(MaskedCell(row_index, attribute, rows[row_index][column]))
        rows[row_index][column] = NULL

    incomplete = Relation(complete.schema, [tuple(row) for row in rows])
    return IncompleteDataset(complete=complete, incomplete=incomplete, masked=tuple(masked))
