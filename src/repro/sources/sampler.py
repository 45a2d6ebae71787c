"""The training/test split of the experimental dataset (§6.2).

QPIAD's knowledge-mining module (Section 5 / Fig. 1) works on a small
sample of the autonomous database.  In the paper's experiments that sample
is a random partition of the experimental dataset: one part trains the
knowledge miner, the rest plays the autonomous database.
:func:`split_relation` draws that partition.
"""

from __future__ import annotations

import random

from repro.errors import QpiadError
from repro.relational.relation import Relation

__all__ = ["split_relation"]


def split_relation(
    relation: Relation, first_fraction: float, rng: random.Random
) -> tuple[Relation, Relation]:
    """Partition *relation* into two disjoint relations.

    Used for the paper's training/test split of the experimental dataset:
    the first part (e.g. 10%) trains the knowledge miner, the remainder
    plays the role of the autonomous database under test.  Both parts keep
    the original row order.
    """
    if not 0.0 < first_fraction < 1.0:
        raise QpiadError(f"split fraction must be in (0, 1), got {first_fraction}")
    count = max(1, round(len(relation) * first_fraction))
    chosen = set(rng.sample(range(len(relation)), min(count, len(relation))))
    first_rows = [row for i, row in enumerate(relation.rows) if i in chosen]
    second_rows = [row for i, row in enumerate(relation.rows) if i not in chosen]
    return Relation(relation.schema, first_rows), Relation(relation.schema, second_rows)
