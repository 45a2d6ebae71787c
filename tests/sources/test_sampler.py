"""Sampling: the training/test split of the experimental dataset."""

import random

import pytest

from repro.datasets import generate_cars
from repro.errors import QpiadError
from repro.relational import Relation
from repro.sources import split_relation


@pytest.fixture(scope="module")
def cars() -> Relation:
    return generate_cars(1000, seed=3)


class TestSplitRelation:
    def test_partition_is_disjoint_and_complete(self, cars):
        train, test = split_relation(cars, 0.2, random.Random(2))
        assert len(train) + len(test) == len(cars)
        assert len(train) == 200

    def test_invalid_fraction_rejected(self, cars):
        with pytest.raises(QpiadError):
            split_relation(cars, 1.0, random.Random(1))
