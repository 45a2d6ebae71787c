"""Seeded scale-factor variants of the experimental datasets.

The columnar data plane is motivated by throughput at realistic sizes (the
paper's Census dataset has ~45k tuples; live autonomous sources are larger
still).  This module grows the Cars and Census generators by fixed scale
factors — 1×, 10×, 100×, 1000× over a small base size — with *derived*
seeds, so every scale factor is reproducible in isolation and different
factors do not share prefixes (a 100× relation is not "the 10× relation
plus more rows"; it is an independent draw, which keeps value distributions
honest at every size).

Incompleteness is injected with the standard GD → ED protocol
(:func:`repro.datasets.incompleteness.make_incomplete`), again with a
derived seed per scale factor.

The scalability benchmark (``benchmarks/bench_scalability.py``), the
knowledge-refresh benchmark and the golden answer digests
(``tests/integration/test_goldens.py``) all draw their inputs from here.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.datasets.cars import generate_cars
from repro.datasets.census import generate_census
from repro.datasets.incompleteness import IncompleteDataset, make_incomplete
from repro.errors import QpiadError
from repro.relational.relation import Relation

__all__ = [
    "SCALE_FACTORS",
    "SCALE_BASE_SIZES",
    "scaled_complete",
    "scaled_incomplete",
]

#: Supported scale factors.
SCALE_FACTORS = (1, 10, 100, 1000)

#: Rows at scale factor 1; factor f yields ``f * base`` rows.
SCALE_BASE_SIZES: Mapping[str, int] = {"cars": 400, "census": 450}

_GENERATORS: Mapping[str, Callable[[int, int], Relation]] = {
    "cars": lambda size, seed: generate_cars(size, seed=seed),
    "census": lambda size, seed: generate_census(size, seed=seed),
}

_BASE_SEED = {"cars": 7, "census": 11}
_MASK_SEED_BASE = 97


def _validate(dataset: str, factor: int) -> None:
    if dataset not in _GENERATORS:
        raise QpiadError(
            f"unknown dataset {dataset!r}; expected one of {sorted(_GENERATORS)}"
        )
    if factor not in SCALE_FACTORS:
        raise QpiadError(
            f"unsupported scale factor {factor}; expected one of {SCALE_FACTORS}"
        )


def scaled_complete(dataset: str, factor: int) -> Relation:
    """The complete (ground-truth) relation of *dataset* at *factor*.

    Deterministic: the generator seed is derived from the dataset's base
    seed and the factor, so repeated calls — in any order, in any process —
    produce identical relations.
    """
    _validate(dataset, factor)
    size = SCALE_BASE_SIZES[dataset] * factor
    seed = _BASE_SEED[dataset] + factor
    return _GENERATORS[dataset](size, seed)


def scaled_incomplete(
    dataset: str, factor: int, incomplete_fraction: float = 0.10
) -> IncompleteDataset:
    """GD → ED pair of *dataset* at *factor* with seeded masking."""
    complete = scaled_complete(dataset, factor)
    return make_incomplete(
        complete,
        incomplete_fraction=incomplete_fraction,
        seed=_MASK_SEED_BASE + factor,
    )
