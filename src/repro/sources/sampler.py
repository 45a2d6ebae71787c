"""Offline sampling of autonomous sources via random probing queries.

QPIAD's knowledge-mining module (Section 5 / Fig. 1) works on "a small
portion of data sampled from the autonomous database using random probing
queries".  :class:`RandomProbingSampler` reproduces that protocol faithfully:
it only interacts with the source through its query interface, bootstraps a
pool of plausible probe values from seed queries, and keeps probing random
``attribute = value`` combinations until the requested sample size is
reached.

For controlled experiments (where we own the experimental dataset anyway)
:func:`uniform_sample` draws a uniform row sample directly, which is how the
paper's train/test partitions of the experimental dataset are built (§6.2).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.errors import MiningError, QpiadError
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.sources.surface import Source

__all__ = ["RandomProbingSampler", "uniform_sample", "split_relation"]


def uniform_sample(relation: Relation, fraction: float, rng: random.Random) -> Relation:
    """A uniform random sample of ``fraction`` of *relation*'s rows.

    The sample preserves the original row order (so repeated runs with the
    same seed are reproducible and order-insensitive code stays honest).
    """
    if not 0.0 < fraction <= 1.0:
        raise QpiadError(f"sample fraction must be in (0, 1], got {fraction}")
    count = max(1, round(len(relation) * fraction))
    indices = sorted(rng.sample(range(len(relation)), min(count, len(relation))))
    rows = [relation.rows[i] for i in indices]
    return Relation(relation.schema, rows)


def split_relation(
    relation: Relation, first_fraction: float, rng: random.Random
) -> tuple[Relation, Relation]:
    """Partition *relation* into two disjoint relations.

    Used for the paper's training/test split of the experimental dataset:
    the first part (e.g. 10%) trains the knowledge miner, the remainder
    plays the role of the autonomous database under test.
    """
    if not 0.0 < first_fraction < 1.0:
        raise QpiadError(f"split fraction must be in (0, 1), got {first_fraction}")
    count = max(1, round(len(relation) * first_fraction))
    chosen = set(rng.sample(range(len(relation)), min(count, len(relation))))
    first_rows = [row for i, row in enumerate(relation.rows) if i in chosen]
    second_rows = [row for i, row in enumerate(relation.rows) if i not in chosen]
    return Relation(relation.schema, first_rows), Relation(relation.schema, second_rows)


class RandomProbingSampler:
    """Build a sample of an autonomous source using only its query interface.

    Parameters
    ----------
    source:
        The source to probe.
    rng:
        Seeded random generator; all randomness flows through it.
    seed_queries:
        Queries issued first to bootstrap the probe-value pool.  A mediator
        always has a few plausible values (years, makes) to start from.
    probe_attributes:
        Attributes eligible for probing; defaults to all categorical-looking
        local attributes (those whose observed values are non-numeric or
        low-cardinality).
    """

    def __init__(
        self,
        source: Source,
        rng: random.Random,
        seed_queries: Sequence[SelectionQuery],
        probe_attributes: Sequence[str] | None = None,
    ):
        if not seed_queries:
            raise MiningError("random probing requires at least one seed query")
        self._source = source
        self._rng = rng
        self._seed_queries = list(seed_queries)
        if probe_attributes is None:
            self._probe_attributes = list(source.schema.names)
        else:
            for name in probe_attributes:
                if not source.supports(name):
                    raise MiningError(
                        f"probe attribute {name!r} is not in the local schema of "
                        f"{source.name!r}"
                    )
            self._probe_attributes = list(probe_attributes)

    def sample(self, target_size: int, max_queries: int = 500) -> Relation:
        """Probe until ``target_size`` distinct tuples are collected.

        Stops early when ``max_queries`` probes have been answered or the
        value pool is exhausted; raises :class:`MiningError` if nothing at
        all could be retrieved.
        """
        collected: dict[Row, None] = {}
        pool: dict[str, list] = {name: [] for name in self._probe_attributes}
        pool_seen: dict[str, set] = {name: set() for name in self._probe_attributes}
        issued = 0

        def absorb(result: Relation) -> None:
            schema = result.schema
            for row in result:
                collected.setdefault(row)
                for name in self._probe_attributes:
                    if name not in schema:
                        continue
                    value = row[schema.index_of(name)]
                    if is_null(value) or value in pool_seen[name]:
                        continue
                    pool_seen[name].add(value)
                    pool[name].append(value)

        for query in self._seed_queries:
            if issued >= max_queries or len(collected) >= target_size:
                break
            absorb(self._source.execute(query))
            issued += 1

        attempts_without_progress = 0
        while len(collected) < target_size and issued < max_queries:
            candidates = [name for name in self._probe_attributes if pool[name]]
            if not candidates:
                break
            attribute = self._rng.choice(candidates)
            value = self._rng.choice(pool[attribute])
            before = len(collected)
            absorb(self._source.execute(SelectionQuery.equals(attribute, value)))
            issued += 1
            if len(collected) == before:
                attempts_without_progress += 1
                if attempts_without_progress > 50:
                    break
            else:
                attempts_without_progress = 0

        if not collected:
            raise MiningError(
                f"random probing of {self._source.name!r} retrieved no tuples; "
                "check the seed queries"
            )
        rows = list(collected.keys())
        if len(rows) > target_size:
            rows = rows[:target_size]
        return Relation(self._source.schema, rows)


def estimate_sample_ratio(
    source: Source,
    sample: Relation,
    probe_queries: Iterable[SelectionQuery],
) -> float:
    """Estimate ``SmplRatio(R)`` = |database| / |sample| (Section 5.4).

    When the source exposes its cardinality we use it directly; otherwise we
    issue the probe queries to both the source and the sample and take the
    ratio of total result cardinalities.
    """
    if not len(sample):
        raise MiningError("cannot estimate a sample ratio from an empty sample")
    if source.capabilities.exposes_cardinality:
        return source.cardinality() / len(sample)
    from repro.query.executor import certain_answers  # local import to avoid cycle

    source_total = 0
    sample_total = 0
    for query in probe_queries:
        source_total += len(source.execute(query))
        sample_total += len(certain_answers(query, sample))
    if sample_total == 0:
        raise MiningError(
            "probe queries matched nothing in the sample; cannot estimate ratio"
        )
    return source_total / sample_total
