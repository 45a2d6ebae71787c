"""The synthetic Cars generator and its planted structure."""

import pytest

from repro.datasets import CAR_CATALOG, MODEL_TO_MAKE, generate_cars
from repro.errors import QpiadError
from repro.mining import TaneConfig, g3_error, mine_dependencies, partition_by


@pytest.fixture(scope="module")
def cars():
    return generate_cars(3000, seed=19)


class TestBasics:
    def test_size_and_schema(self, cars):
        assert len(cars) == 3000
        assert cars.schema.names == (
            "make", "model", "year", "price", "mileage", "body_style", "certified"
        )

    def test_all_tuples_complete(self, cars):
        assert cars.incomplete_fraction() == 0.0

    def test_deterministic_under_seed(self):
        assert generate_cars(100, seed=1) == generate_cars(100, seed=1)

    def test_different_seeds_differ(self):
        assert generate_cars(100, seed=1) != generate_cars(100, seed=2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(QpiadError):
            generate_cars(0)
        with pytest.raises(QpiadError):
            generate_cars(10, body_style_fidelity=0.0)


class TestPlantedStructure:
    def test_model_determines_make_exactly(self, cars):
        for row in cars:
            assert row[0] == MODEL_TO_MAKE[row[1]]

    def test_body_style_fidelity_close_to_requested(self):
        cars = generate_cars(4000, seed=3, body_style_fidelity=0.9)
        matches = sum(
            1
            for row in cars
            if row[5] == CAR_CATALOG[row[0]][row[1]][0]
        )
        assert matches / len(cars) == pytest.approx(0.9, abs=0.03)

    def test_mileage_tracks_age(self, cars):
        old = [row[4] for row in cars if row[2] <= 2000]
        new = [row[4] for row in cars if row[2] >= 2006]
        assert sum(old) / len(old) > sum(new) / len(new)

    def test_prices_are_positive_and_rounded(self, cars):
        assert all(row[3] > 0 and row[3] % 1000 == 0 for row in cars)

    def test_miner_recovers_the_planted_afd(self, cars):
        partition = partition_by(cars, ["model"])
        error = g3_error(partition, cars.columnar().column("body_style").codes)
        assert 1 - error == pytest.approx(0.9, abs=0.06)

    def test_tane_finds_model_to_make(self, cars):
        result = mine_dependencies(
            cars.take(800),
            TaneConfig(min_confidence=0.85, max_determining_size=2, min_support=30),
        )
        best = result.best_afd("make")
        assert best is not None and best.determining == ("model",)
