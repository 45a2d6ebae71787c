"""Classical imputation — filling NULLs in a database you *do* control.

The paper's related work contrasts QPIAD with "imputation methods that
attempt to modify the database directly by replacing null values with
likely values", which are "not applicable for autonomous databases".  When
you *own* the data (e.g. cleaning a local copy, or preparing a warehouse
load), the very same mined knowledge supports classical imputation — so the
library ships it:

* every NULL is replaced by the classifier's most likely completion given
  the tuple's present values,
* optionally only when the posterior clears a confidence threshold
  (uncertain cells stay NULL), and
* an :class:`ImputationReport` records exactly what was changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import MiningError, QpiadError
from repro.mining.knowledge import KnowledgeBase
from repro.relational.relation import Relation
from repro.relational.values import is_null

__all__ = ["ImputedCell", "ImputationReport", "impute"]


@dataclass(frozen=True)
class ImputedCell:
    """One filled cell: where, what, and how confident."""

    row_index: int
    attribute: str
    value: Any
    confidence: float


@dataclass
class ImputationReport:
    """Outcome of one imputation pass."""

    relation: Relation
    imputed: tuple[ImputedCell, ...] = ()
    skipped_low_confidence: int = 0
    skipped_unpredictable: int = 0

    @property
    def filled_count(self) -> int:
        return len(self.imputed)


def impute(
    relation: Relation,
    knowledge: KnowledgeBase,
    attributes: Sequence[str] | None = None,
    min_confidence: float = 0.0,
    method: str | None = None,
) -> ImputationReport:
    """Fill NULLs of *relation* using *knowledge*'s classifiers.

    Parameters
    ----------
    relation:
        The incomplete relation (left untouched; a new one is returned).
    knowledge:
        Mined statistics; its classifiers supply the completions.
    attributes:
        Restrict imputation to these attributes (default: all).
    min_confidence:
        Leave a cell NULL when the best completion's posterior probability
        falls below this threshold.
    method:
        Classifier variant (default: the knowledge base's configured one).
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise QpiadError(f"min_confidence must be in [0, 1], got {min_confidence}")
    schema = relation.schema
    targets = list(attributes) if attributes is not None else list(schema.names)
    for name in targets:
        schema.index_of(name)  # validate

    originals = list(relation)
    rows = [list(row) for row in originals]
    imputed: list[ImputedCell] = []
    skipped_low = 0
    skipped_unpredictable = 0
    # One completions batch per attribute, each row whole as its evidence.
    for name in targets:
        index = schema.index_of(name)
        missing = [i for i, row in enumerate(originals) if is_null(row[index])]
        try:
            completions = knowledge.completions(
                name, [dict(zip(schema.names, originals[i])) for i in missing], method
            )
        except MiningError:
            skipped_unpredictable += len(missing)
            continue
        for row_index, (predicted, confidence) in zip(missing, completions):
            if confidence < min_confidence:
                skipped_low += 1
                continue
            rows[row_index][index] = predicted
            imputed.append(ImputedCell(row_index, name, predicted, confidence))
    # Report row by row, each row's cells in target order (the sort is stable).
    imputed.sort(key=lambda cell: cell.row_index)

    return ImputationReport(
        relation=Relation(schema, [tuple(values) for values in rows]),
        imputed=tuple(imputed),
        skipped_low_confidence=skipped_low,
        skipped_unpredictable=skipped_unpredictable,
    )
